module Obs = Chronus_obs.Obs

(* Volume counters only: how many lookups a run performs — and how many
   of them fall through to the longest-prefix trie — is a pure function
   of the workload, so observing them never influences the simulation. *)
let c_lookups = Obs.Counter.v "sim.flow_lookups"
let c_prefix_lookups = Obs.Counter.v "sim.prefix_lookups"
let g_prefix_high_water = Obs.Gauge.v "sim.prefix_rules_high_water"

type tag_match = Any_tag | Tag of int

type forward = Out of int | To_host | Drop

type action = { set_tag : int option; forward : forward }

(* Destinations are fixed-width bitstrings: [addr_bits] wide, matched
   either exactly (len = addr_bits) or on a leading prefix. *)
let addr_bits = 16

type rule = {
  id : int;
  priority : int;
  dst : int;
  len : int;  (** prefix length; [addr_bits] for an exact rule *)
  tag_match : tag_match;
  action : action;
}

(* [better a b]: does [a] win a tie against [b]?  Highest priority,
   then oldest id. *)
let better a b =
  a.priority > b.priority || (a.priority = b.priority && a.id < b.id)

let rec insert_sorted rule = function
  | [] -> [ rule ]
  | r :: rest as l ->
      if better r rule then r :: insert_sorted rule rest else rule :: l

let tag_ok tag_match tag =
  match (tag_match, tag) with
  | Any_tag, _ -> true
  | Tag v, Some v' -> v = v'
  | Tag _, None -> false

(* The first rule of a (priority desc, id asc)-sorted bucket whose tag
   constraint is satisfied is the bucket's best match. *)
let rec first_tag_ok tag = function
  | [] -> None
  | r :: rest -> if tag_ok r.tag_match tag then Some r else first_tag_ok tag rest

let sort_rules all =
  List.sort
    (fun a b ->
      match compare b.priority a.priority with
      | 0 -> compare a.id b.id
      | c -> c)
    all

(* ------------------------------------------------------------------ *)
(* Prefix machinery: addresses are the low [addr_bits] bits of an int; a
   prefix of length [l] covers the addresses sharing its top [l] bits.
   Prefix values are kept normalised (low [addr_bits - l] bits zero).   *)

(* lsl/lsr are right-associative in OCaml: the grouping parens matter. *)
let truncate p l =
  if l >= addr_bits then p else (p lsr (addr_bits - l)) lsl (addr_bits - l)
let covers ~pfx ~len addr = truncate addr len = pfx

(* The [i]-th bit counted from the top of the address, 0-based. *)
let bit addr i = (addr lsr (addr_bits - 1 - i)) land 1

let common_len p1 l1 p2 l2 =
  let lim = min l1 l2 in
  let rec go i = if i >= lim || bit p1 i <> bit p2 i then i else go (i + 1) in
  go 0

(* A path-compressed binary trie over prefixes. Nodes are persistent:
   installs and removals rebuild the (≤ addr_bits deep) spine, so
   {!snapshot} shares the whole structure with the live table. *)
type node = {
  n_pfx : int;  (* normalised prefix value *)
  n_len : int;  (* 0 .. addr_bits - 1 *)
  n_rules : rule list;  (* rules at exactly (n_pfx, n_len), sorted *)
  n_zero : node option;  (* subtree where bit [n_len] = 0 *)
  n_one : node option;
}

let leaf pfx len rule =
  { n_pfx = pfx; n_len = len; n_rules = [ rule ]; n_zero = None; n_one = None }

let rec trie_insert node pfx len rule =
  match node with
  | None -> leaf pfx len rule
  | Some n ->
      let cl = common_len n.n_pfx n.n_len pfx len in
      if cl = n.n_len && cl = len then
        { n with n_rules = insert_sorted rule n.n_rules }
      else if cl = n.n_len then
        (* The new prefix extends this node: descend. *)
        if bit pfx n.n_len = 0 then
          { n with n_zero = Some (trie_insert n.n_zero pfx len rule) }
        else { n with n_one = Some (trie_insert n.n_one pfx len rule) }
      else if cl = len then
        (* The new prefix is a proper ancestor of this node. *)
        if bit n.n_pfx len = 0 then
          { n_pfx = pfx; n_len = len; n_rules = [ rule ];
            n_zero = Some n; n_one = None }
        else
          { n_pfx = pfx; n_len = len; n_rules = [ rule ];
            n_zero = None; n_one = Some n }
      else
        (* Diverging prefixes: split at the common length. *)
        let fresh = leaf pfx len rule in
        let z, o = if bit n.n_pfx cl = 0 then (n, fresh) else (fresh, n) in
        { n_pfx = truncate pfx cl; n_len = cl; n_rules = [];
          n_zero = Some z; n_one = Some o }

(* Drop empty nodes and re-compress pass-through nodes so removal never
   degrades the trie's depth bound. *)
let prune n =
  match (n.n_rules, n.n_zero, n.n_one) with
  | [], None, None -> None
  | [], Some c, None | [], None, Some c -> Some c
  | _ -> Some n

let rec trie_remove node pfx len tag_match removed =
  match node with
  | None -> None
  | Some n ->
      if n.n_len = len && n.n_pfx = pfx then begin
        let kept =
          List.filter
            (fun r ->
              if r.tag_match = tag_match then begin
                incr removed;
                false
              end
              else true)
            n.n_rules
        in
        prune { n with n_rules = kept }
      end
      else if n.n_len < len && covers ~pfx:n.n_pfx ~len:n.n_len pfx then
        let child =
          if bit pfx n.n_len = 0 then
            { n with n_zero = trie_remove n.n_zero pfx len tag_match removed }
          else { n with n_one = trie_remove n.n_one pfx len tag_match removed }
        in
        prune child
      else node

let rec trie_fold f acc = function
  | None -> acc
  | Some n ->
      let acc = List.fold_left f acc n.n_rules in
      let acc = trie_fold f acc n.n_zero in
      trie_fold f acc n.n_one

let rec trie_nodes = function
  | None -> 0
  | Some n -> 1 + trie_nodes n.n_zero + trie_nodes n.n_one

(* ------------------------------------------------------------------ *)
(* The live table: exact rules bucketed by [dst] (each bucket a
   persistent list sorted better-first), aggregated prefix rules in the
   trie. Exact rules are full-width prefixes, so "exact bucket first,
   trie only on miss" is longest-prefix-match semantics. *)

type t = {
  mutable buckets : (int, rule list) Hashtbl.t;
  mutable root : node option;
  mutable next_id : int;
  mutable total : int;  (* exact + prefix rules *)
  mutable prefix_total : int;
  mutable on_size_change : int -> unit;
}

let create () =
  {
    buckets = Hashtbl.create 16;
    root = None;
    next_id = 0;
    total = 0;
    prefix_total = 0;
    on_size_change = ignore;
  }

let on_size_change t f = t.on_size_change <- f

let bucket t dst = match Hashtbl.find_opt t.buckets dst with
  | Some b -> b
  | None -> []

let set_bucket t dst = function
  | [] -> Hashtbl.remove t.buckets dst
  | b -> Hashtbl.replace t.buckets dst b

let install t ~priority ~dst ~tag_match action =
  let rule = { id = t.next_id; priority; dst; len = addr_bits; tag_match; action } in
  t.next_id <- t.next_id + 1;
  set_bucket t dst (insert_sorted rule (bucket t dst));
  t.total <- t.total + 1;
  t.on_size_change 1;
  rule

let install_prefix t ~priority ~prefix ~len ~tag_match action =
  if len < 0 || len > addr_bits then
    invalid_arg
      (Printf.sprintf "Flow_table.install_prefix: len %d outside [0, %d]" len
         addr_bits);
  if len = addr_bits then install t ~priority ~dst:prefix ~tag_match action
  else begin
    let pfx = truncate prefix len in
    let rule = { id = t.next_id; priority; dst = pfx; len; tag_match; action } in
    t.next_id <- t.next_id + 1;
    t.root <- Some (trie_insert t.root pfx len rule);
    t.prefix_total <- t.prefix_total + 1;
    Obs.Gauge.observe g_prefix_high_water t.prefix_total;
    t.total <- t.total + 1;
    t.on_size_change 1;
    rule
  end

let modify_actions t ~dst ~tag_match action =
  let changed = ref 0 in
  let b =
    List.map
      (fun r ->
        if r.tag_match = tag_match then begin
          incr changed;
          { r with action }
        end
        else r)
      (bucket t dst)
  in
  if !changed > 0 then set_bucket t dst b;
  !changed

let remove t ~dst ~tag_match =
  let removed = ref 0 in
  let b =
    List.filter
      (fun r ->
        if r.tag_match = tag_match then begin
          incr removed;
          false
        end
        else true)
      (bucket t dst)
  in
  if !removed > 0 then begin
    set_bucket t dst b;
    t.total <- t.total - !removed;
    t.on_size_change (- !removed)
  end;
  !removed

let remove_prefix t ~prefix ~len ~tag_match =
  if len = addr_bits then remove t ~dst:prefix ~tag_match
  else begin
    let removed = ref 0 in
    t.root <- trie_remove t.root (truncate prefix len) len tag_match removed;
    if !removed > 0 then begin
      t.prefix_total <- t.prefix_total - !removed;
      t.total <- t.total - !removed;
      t.on_size_change (- !removed)
    end;
    !removed
  end

(* Longest-prefix walk: every node on the root-to-[dst] path whose prefix
   covers [dst] may hold a match; the deepest one wins, ties within a
   node resolve by the bucket order (priority desc, id asc). *)
let lpm root dst tag =
  let rec walk best = function
    | None -> best
    | Some n ->
        if covers ~pfx:n.n_pfx ~len:n.n_len dst then
          let best =
            match first_tag_ok tag n.n_rules with
            | Some r -> Some r
            | None -> best
          in
          walk best (if bit dst n.n_len = 0 then n.n_zero else n.n_one)
        else best
  in
  walk None root

let lookup t ~dst ~tag =
  Obs.Counter.incr c_lookups;
  match first_tag_ok tag (bucket t dst) with
  | Some r -> Some r
  | None -> (
      match t.root with
      | None -> None
      | Some _ as root ->
          Obs.Counter.incr c_prefix_lookups;
          lpm root dst tag)

type snapshot = {
  s_buckets : (int, rule list) Hashtbl.t;
  s_root : node option;
  s_total : int;
  s_prefix_total : int;
}

let snapshot t =
  {
    s_buckets = Hashtbl.copy t.buckets;
    s_root = t.root;
    s_total = t.total;
    s_prefix_total = t.prefix_total;
  }

let restore t s =
  (* next_id stays monotone: rules installed after a restore are younger
     than every surviving snapshot rule, so tie-breaks stay stable. The
     observer sees exactly one signed delta — the net change. *)
  let delta = s.s_total - t.total in
  t.buckets <- Hashtbl.copy s.s_buckets;
  t.root <- s.s_root;
  t.total <- s.s_total;
  t.prefix_total <- s.s_prefix_total;
  if delta <> 0 then t.on_size_change delta

let size t = t.total

let prefix_size t = t.prefix_total

(* A live-heap estimate in machine words, deterministic (no wall clock)
   so it can sit in digested experiment rows: a rule record plus its
   bucket/trie cons ≈ 10 words, a bucket slot ≈ 5, a trie node ≈ 8. *)
let memory_words t =
  let exact = t.total - t.prefix_total in
  let buckets = Hashtbl.length t.buckets in
  (10 * exact) + (5 * buckets) + (8 * trie_nodes t.root)
  + (10 * t.prefix_total)

let rules t =
  let all = Hashtbl.fold (fun _ b acc -> List.rev_append b acc) t.buckets [] in
  let all = trie_fold (fun acc r -> r :: acc) all t.root in
  sort_rules all

let pp_forward ppf = function
  | Out v -> Format.fprintf ppf "output:v%d" v
  | To_host -> Format.pp_print_string ppf "output:host"
  | Drop -> Format.pp_print_string ppf "drop"

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      let dst =
        if r.len = addr_bits then Printf.sprintf "v%d" r.dst
        else Printf.sprintf "0x%x/%d" r.dst r.len
      in
      Format.fprintf ppf "prio %d  dst %s  tag %s  ->  %s%a@," r.priority dst
        (match r.tag_match with Any_tag -> "*" | Tag v -> string_of_int v)
        (match r.action.set_tag with
        | None -> ""
        | Some v -> Printf.sprintf "set_tag:%d, " v)
        pp_forward r.action.forward)
    (rules t);
  Format.fprintf ppf "@]"
