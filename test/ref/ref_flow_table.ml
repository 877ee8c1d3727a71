(* Reference models for the differential test in suite_flow_table.ml and
   the [flow-table/legacy-lookup/1000] micro-benchmark: the two
   exact-match tables that [Chronus_sim.Flow_table] replaced. Both share
   only the rule types with the production table. The ordering, tag and
   sorting helpers below are their own copies, so a bug in the
   production helpers cannot hide in the reference too. *)

module FT = Chronus_sim.Flow_table

type tag_match = FT.tag_match = Any_tag | Tag of int
type forward = FT.forward = Out of int | To_host | Drop
type action = FT.action = { set_tag : int option; forward : forward }

type rule = FT.rule = {
  id : int;
  priority : int;
  dst : int;
  len : int;
  tag_match : tag_match;
  action : action;
}

let addr_bits = FT.addr_bits

(* [better a b]: does [a] win a tie against [b]?  Highest priority,
   then oldest id. *)
let better a b =
  a.priority > b.priority || (a.priority = b.priority && a.id < b.id)

let tag_ok tag_match tag =
  match (tag_match, tag) with
  | Any_tag, _ -> true
  | Tag v, Some v' -> v = v'
  | Tag _, None -> false

let sort_rules all =
  List.sort
    (fun a b ->
      match compare b.priority a.priority with
      | 0 -> compare a.id b.id
      | c -> c)
    all

(* The dst-indexed table: hashtable of persistent priority buckets,
   exact match only — the production table minus the prefix trie. *)
module Exact = struct
  let rec insert_sorted rule = function
    | [] -> [ rule ]
    | r :: rest as l ->
        if better r rule then r :: insert_sorted rule rest else rule :: l

  (* The first rule of a (priority desc, id asc)-sorted bucket whose tag
     constraint is satisfied is the bucket's best match. *)
  let rec first_tag_ok tag = function
    | [] -> None
    | r :: rest ->
        if tag_ok r.tag_match tag then Some r else first_tag_ok tag rest

  type t = {
    mutable e_buckets : (int, rule list) Hashtbl.t;
    mutable e_next_id : int;
    mutable e_total : int;
    mutable e_on_size_change : int -> unit;
  }

  let create () =
    {
      e_buckets = Hashtbl.create 16;
      e_next_id = 0;
      e_total = 0;
      e_on_size_change = ignore;
    }

  let on_size_change t f = t.e_on_size_change <- f

  let bucket t dst = match Hashtbl.find_opt t.e_buckets dst with
    | Some b -> b
    | None -> []

  let set_bucket t dst = function
    | [] -> Hashtbl.remove t.e_buckets dst
    | b -> Hashtbl.replace t.e_buckets dst b

  let install t ~priority ~dst ~tag_match action =
    let rule =
      { id = t.e_next_id; priority; dst; len = addr_bits; tag_match; action }
    in
    t.e_next_id <- t.e_next_id + 1;
    set_bucket t dst (insert_sorted rule (bucket t dst));
    t.e_total <- t.e_total + 1;
    t.e_on_size_change 1;
    rule

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
      t.e_total <- t.e_total - !removed;
      t.e_on_size_change (- !removed)
    end;
    !removed

  let lookup t ~dst ~tag = first_tag_ok tag (bucket t dst)

  type snapshot = { s_buckets : (int, rule list) Hashtbl.t; s_total : int }

  let snapshot t = { s_buckets = Hashtbl.copy t.e_buckets; s_total = t.e_total }

  let restore t s =
    let delta = s.s_total - t.e_total in
    t.e_buckets <- Hashtbl.copy s.s_buckets;
    t.e_total <- s.s_total;
    if delta <> 0 then t.e_on_size_change delta

  let size t = t.e_total

  let rules t =
    sort_rules
      (Hashtbl.fold (fun _ b acc -> List.rev_append b acc) t.e_buckets [])
end

(* The original list implementation: one unsorted rule list, O(rules)
   per operation, ties resolved by a fold. *)
module Legacy = struct
  let same_match rule ~dst ~tag_match =
    rule.dst = dst && rule.tag_match = tag_match

  type t = { mutable l_rules : rule list; mutable l_next_id : int }

  let create () = { l_rules = []; l_next_id = 0 }

  let install t ~priority ~dst ~tag_match action =
    let rule =
      { id = t.l_next_id; priority; dst; len = addr_bits; tag_match; action }
    in
    t.l_next_id <- t.l_next_id + 1;
    t.l_rules <- rule :: t.l_rules;
    rule

  let modify_actions t ~dst ~tag_match action =
    let changed = ref 0 in
    t.l_rules <-
      List.map
        (fun r ->
          if same_match r ~dst ~tag_match then begin
            incr changed;
            { r with action }
          end
          else r)
        t.l_rules;
    !changed

  let remove t ~dst ~tag_match =
    let removed = ref 0 in
    t.l_rules <-
      List.filter
        (fun r ->
          if same_match r ~dst ~tag_match then begin
            incr removed;
            false
          end
          else true)
        t.l_rules;
    !removed

  let lookup t ~dst ~tag =
    let candidates =
      List.filter (fun r -> r.dst = dst && tag_ok r.tag_match tag) t.l_rules
    in
    List.fold_left
      (fun best r ->
        match best with
        | None -> Some r
        | Some b -> if better r b then Some r else best)
      None candidates

  type snapshot = rule list

  let snapshot t = t.l_rules

  let restore t s = t.l_rules <- s

  let size t = List.length t.l_rules

  let rules t = sort_rules t.l_rules
end
