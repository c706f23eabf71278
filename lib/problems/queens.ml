type t = {
  n : int;
  x : int array;
  up : int array;    (* up.(x_i + i): queens on each / diagonal *)
  down : int array;  (* down.(x_i - i + n - 1): queens on each \ diagonal *)
  mutable cost : int;
}

let name = "n-queens"
let size t = t.n
let config t = t.x
let cost t = t.cost

let surplus c = if c > 1 then c - 1 else 0

let rebuild t =
  Array.fill t.up 0 (Array.length t.up) 0;
  Array.fill t.down 0 (Array.length t.down) 0;
  t.cost <- 0;
  for i = 0 to t.n - 1 do
    let u = t.x.(i) + i and d = t.x.(i) - i + t.n - 1 in
    t.up.(u) <- t.up.(u) + 1;
    if t.up.(u) > 1 then t.cost <- t.cost + 1;
    t.down.(d) <- t.down.(d) + 1;
    if t.down.(d) > 1 then t.cost <- t.cost + 1
  done

let set_config t cfg =
  if Array.length cfg <> t.n then invalid_arg "Queens.set_config: size mismatch";
  Array.blit cfg 0 t.x 0 t.n;
  rebuild t

let create n =
  if n < 4 then invalid_arg "Queens.create: n must be >= 4";
  let t =
    {
      n;
      x = Array.init n (fun i -> i);
      up = Array.make ((2 * n) - 1) 0;
      down = Array.make ((2 * n) - 1) 0;
      cost = 0;
    }
  in
  rebuild t;
  t

let var_error t i =
  let u = t.x.(i) + i and d = t.x.(i) - i + t.n - 1 in
  surplus t.up.(u) + surplus t.down.(d)

let errors t buf =
  let x = t.x and up = t.up and down = t.down and m = t.n - 1 in
  for i = 0 to m do
    let xi = x.(i) in
    buf.(i) <- surplus up.(xi + i) + surplus down.(xi - i + m)
  done

let eval_swap t i j ~commit =
  (* Remove both queens' diagonals and add them back swapped. *)
  let xi = t.x.(i) and xj = t.x.(j) and m = t.n - 1 in
  let ui = xi + i and di = xi - i + m in
  let uj = xj + j and dj = xj - j + m in
  let ui' = xj + i and di' = xj - i + m in
  let uj' = xi + j and dj' = xi - j + m in
  let delta =
    Surplus.remove t.up ui + Surplus.remove t.up uj
    + Surplus.remove t.down di + Surplus.remove t.down dj
    + Surplus.add t.up ui' + Surplus.add t.up uj'
    + Surplus.add t.down di' + Surplus.add t.down dj'
  in
  let new_cost = t.cost + delta in
  if commit then begin
    t.cost <- new_cost;
    t.x.(i) <- xj;
    t.x.(j) <- xi
  end
  else begin
    t.up.(ui') <- t.up.(ui') - 1;
    t.up.(uj') <- t.up.(uj') - 1;
    t.down.(di') <- t.down.(di') - 1;
    t.down.(dj') <- t.down.(dj') - 1;
    t.up.(ui) <- t.up.(ui) + 1;
    t.up.(uj) <- t.up.(uj) + 1;
    t.down.(di) <- t.down.(di) + 1;
    t.down.(dj) <- t.down.(dj) + 1
  end;
  new_cost

let cost_after_swap t i j = if i = j then t.cost else eval_swap t i j ~commit:false
let do_swap t i j = if i <> j then ignore (eval_swap t i j ~commit:true)

let best_partners t culprit buf =
  Lv_search.Csp.best_partners_by cost_after_swap t.n t culprit buf

let check x =
  let n = Array.length x in
  n >= 4
  && begin
       let seen = Array.make n false in
       let up = Array.make ((2 * n) - 1) 0 and down = Array.make ((2 * n) - 1) 0 in
       let ok = ref true in
       Array.iteri
         (fun i v ->
           if v < 0 || v >= n || seen.(v) then ok := false
           else begin
             seen.(v) <- true;
             let u = v + i and d = v - i + n - 1 in
             if up.(u) > 0 || down.(d) > 0 then ok := false;
             up.(u) <- up.(u) + 1;
             down.(d) <- down.(d) + 1
           end)
         x;
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
