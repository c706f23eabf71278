type t = {
  n : int;
  half : int;
  target_sum : int;      (* N(N+1)/4 *)
  target_sumsq : int;    (* N(N+1)(2N+1)/12 *)
  x : int array;         (* permutation of 0 .. n-1; value = x.(i) + 1 *)
  mutable sum1 : int;    (* sum of values in positions 0 .. half-1 *)
  mutable sumsq1 : int;
  mutable cost : int;
}

let name = "number-partitioning"
let size t = t.n
let config t = t.x

let cost_of t sum1 sumsq1 =
  abs (sum1 - t.target_sum) + abs (sumsq1 - t.target_sumsq)

let cost t = t.cost

let rebuild t =
  t.sum1 <- 0;
  t.sumsq1 <- 0;
  for i = 0 to t.half - 1 do
    let v = t.x.(i) + 1 in
    t.sum1 <- t.sum1 + v;
    t.sumsq1 <- t.sumsq1 + (v * v)
  done;
  t.cost <- cost_of t t.sum1 t.sumsq1

let set_config t cfg =
  if Array.length cfg <> t.n then invalid_arg "Partition.set_config: size mismatch";
  Array.blit cfg 0 t.x 0 t.n;
  rebuild t

let create n =
  if n < 8 || n mod 8 <> 0 then
    invalid_arg "Partition.create: n must be a positive multiple of 8 (no solution otherwise)";
  let t =
    {
      n;
      half = n / 2;
      target_sum = n * (n + 1) / 4;
      target_sumsq = n * (n + 1) * ((2 * n) + 1) / 12;
      x = Array.init n (fun i -> i);
      sum1 = 0;
      sumsq1 = 0;
      cost = 0;
    }
  in
  rebuild t;
  t

(* Every variable carries the global deviation: the two constraints are
   fully symmetric in the positions, so there is no sharper projection —
   culprit selection degenerates to a uniform choice, as in the reference
   implementation of this benchmark. *)
let var_error t _ = t.cost

let errors t buf = Lv_search.Csp.errors_by var_error t.n t buf

let cost_after_swap t i j =
  let side_i = i < t.half and side_j = j < t.half in
  if side_i = side_j then t.cost
  else begin
    (* Normalize to (p, q) with p in the first half. *)
    let p, q = if side_i then (i, j) else (j, i) in
    let vp = t.x.(p) + 1 and vq = t.x.(q) + 1 in
    let sum1 = t.sum1 - vp + vq in
    let sumsq1 = t.sumsq1 - (vp * vp) + (vq * vq) in
    cost_of t sum1 sumsq1
  end

let best_partners t culprit buf =
  Lv_search.Csp.best_partners_by cost_after_swap t.n t culprit buf

let do_swap t i j =
  let side_i = i < t.half and side_j = j < t.half in
  if side_i <> side_j then begin
    let p, q = if side_i then (i, j) else (j, i) in
    let vp = t.x.(p) + 1 and vq = t.x.(q) + 1 in
    t.sum1 <- t.sum1 - vp + vq;
    t.sumsq1 <- t.sumsq1 - (vp * vp) + (vq * vq);
    t.cost <- cost_of t t.sum1 t.sumsq1
  end;
  if i <> j then begin
    let tmp = t.x.(i) in
    t.x.(i) <- t.x.(j);
    t.x.(j) <- tmp
  end

let check x =
  let n = Array.length x in
  n >= 8 && n mod 8 = 0
  && begin
       let seen = Array.make n false in
       let ok = ref true in
       Array.iter
         (fun v ->
           if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true)
         x;
       if !ok then begin
         let half = n / 2 in
         let s = ref 0 and ss = ref 0 in
         for i = 0 to half - 1 do
           let v = x.(i) + 1 in
           s := !s + v;
           ss := !ss + (v * v)
         done;
         if !s <> n * (n + 1) / 4 || !ss <> n * (n + 1) * ((2 * n) + 1) / 12 then
           ok := false
       end;
       !ok
     end

let is_solution t = check t.x

let pack n =
  Lv_search.Csp.Packed
    ( (module struct
        type nonrec t = t

        let name = name
        let size = size
        let set_config = set_config
        let config = config
        let cost = cost
        let var_error = var_error
        let errors = errors
        let cost_after_swap = cost_after_swap
        let best_partners = best_partners
        let do_swap = do_swap
        let is_solution = is_solution
      end),
      create n )
