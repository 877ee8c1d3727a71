type t = { sorted : float array }

let of_samples = function
  | [] -> invalid_arg "Cdf.of_samples: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      { sorted = a }

let of_int_samples xs = of_samples (List.map float_of_int xs)

let size t = Array.length t.sorted

(* Number of samples <= x, by binary search for the last such index. *)
let rank t x =
  let a = t.sorted in
  let n = Array.length a in
  let rec bisect lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) <= x then bisect (mid + 1) hi else bisect lo mid
    end
  in
  bisect 0 n

let eval t x = float_of_int (rank t x) /. float_of_int (size t)

let inverse t q =
  if q < 0. || q > 1. then invalid_arg "Cdf.inverse: q out of range";
  let n = size t in
  let idx =
    min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))
  in
  t.sorted.(idx)

let points t =
  let n = size t in
  let rec build i acc =
    if i < 0 then acc
    else begin
      let x = t.sorted.(i) in
      match acc with
      | (x', _) :: _ when x' = x -> build (i - 1) acc
      | _ -> build (i - 1) ((x, float_of_int (i + 1) /. float_of_int n) :: acc)
    end
  in
  build (n - 1) []
