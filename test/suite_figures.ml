(* The figure registry drives these cases: one jobs-parity case per
   figure — its stable rows (wall-measured columns zeroed) digest the
   same at jobs 1 and 3 — plus the registry's own name resolution. *)

module E = Chronus_experiments
module F = E.Figure

let test_jobs_parity fig () =
  let digest jobs = (F.measure fig ~jobs ~scale:E.Scale.tiny).F.digest in
  Alcotest.(check string)
    "stable rows identical at jobs=1 and jobs=3" (digest 1) (digest 3)

let test_names () =
  let names = List.concat_map F.names F.all in
  Alcotest.(check int)
    "names and aliases are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "all is reserved for the CLI" false
    (List.mem "all" names);
  List.iter
    (fun fig ->
      List.iter
        (fun n ->
          match F.find n with
          | Ok f -> Alcotest.(check string) ("resolves " ^ n) (F.name fig) (F.name f)
          | Error msg -> Alcotest.fail msg)
        (F.names fig))
    F.all;
  Alcotest.(check bool) "unknown name rejected" true
    (Result.is_error (F.find "no-such-figure"))

let suite =
  ( "figures",
    Alcotest.test_case "names and aliases resolve" `Quick test_names
    :: List.map
         (fun fig ->
           Alcotest.test_case (F.name fig ^ " jobs parity") `Slow
             (test_jobs_parity fig))
         F.all )
