/* Peak resident set size of this process, for the peak_rss_mb metric. */
#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_peak_rss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
