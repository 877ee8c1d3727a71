type topo = Fat_tree of int | B4 | Wan of int

type t = {
  instances : int;
  switch_counts : int list;
  big_switch_counts : int list;
  opt_budget : int;
  opt_timeout : float;
  or_budget : int;
  baseline_cap : float;
  seed : int;
  clock_errors_ms : int list;
  topos : topo list;
  rates : int list;
  conns : int list;
}

(* The delay unit is 50 ms: tiny checks the two ends of the robustness
   axis, the larger presets sweep it. *)
let quick =
  {
    instances = 10;
    switch_counts = [ 10; 20; 30; 40; 50; 60 ];
    big_switch_counts = [ 1_000; 2_000; 3_000 ];
    opt_budget = 1_500;
    opt_timeout = 0.25;
    or_budget = 5_000;
    baseline_cap = 2.0;
    seed = 42;
    clock_errors_ms = [ 0; 10; 25; 50; 100 ];
    topos = [ Fat_tree 4; Fat_tree 6; Fat_tree 8; Fat_tree 16; B4; Wan 16; Wan 32 ];
    rates = [ 1; 2; 4; 8; 16 ];
    conns = [ 2_000; 10_000 ];
  }

let paper =
  {
    instances = 500;
    switch_counts = [ 10; 20; 30; 40; 50; 60 ];
    big_switch_counts = [ 1_000; 2_000; 3_000; 4_000; 5_000; 6_000 ];
    opt_budget = 2_000_000;
    opt_timeout = 60.0;
    or_budget = 2_000_000;
    baseline_cap = 60.0;
    seed = 42;
    clock_errors_ms = [ 0; 10; 25; 50; 100 ];
    topos =
      [
        Fat_tree 4; Fat_tree 8; Fat_tree 12; Fat_tree 16; Fat_tree 32; B4;
        Wan 32; Wan 64; Wan 128;
      ];
    rates = [ 1; 2; 4; 8; 16 ];
    conns = [ 10_000; 40_000 ];
  }

let tiny =
  {
    instances = 4;
    switch_counts = [ 6; 10 ];
    big_switch_counts = [ 40 ];
    opt_budget = 300;
    opt_timeout = 0.1;
    or_budget = 2_000;
    baseline_cap = 0.5;
    seed = 42;
    clock_errors_ms = [ 0; 50 ];
    topos = [ Fat_tree 4; Wan 8 ];
    rates = [ 1; 4 ];
    conns = [ 500; 2_000 ];
  }

let presets = [ ("tiny", tiny); ("quick", quick); ("paper", paper) ]

let parse name =
  match List.assoc_opt name presets with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Scale.parse: unknown preset %S" name)

let topo_of_string s =
  let num prefix = Scanf.sscanf_opt s (prefix ^^ "%u%!") Fun.id in
  match (s, num "fat", num "wan") with
  | "b4", _, _ -> Ok B4
  | _, Some k, _ when k >= 4 && k mod 2 = 0 -> Ok (Fat_tree k)
  | _, _, Some n when n >= 4 -> Ok (Wan n)
  | _ ->
      Error
        (Printf.sprintf
           "unknown topology %S (expected fatK with K even and >= 4, b4, or \
            wanN with N >= 4)"
           s)

let topo_to_string = function
  | Fat_tree k -> Printf.sprintf "fat%d" k
  | B4 -> "b4"
  | Wan n -> Printf.sprintf "wan%d" n
