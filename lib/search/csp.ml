module type PROBLEM = sig
  type t

  val name : string
  val size : t -> int
  val set_config : t -> int array -> unit
  val config : t -> int array
  val cost : t -> int
  val var_error : t -> int -> int
  val errors : t -> int array -> unit
  val cost_after_swap : t -> int -> int -> int
  val best_partners : t -> int -> int array -> int
  val do_swap : t -> int -> int -> unit
  val is_solution : t -> bool
end

type packed = Packed : (module PROBLEM with type t = 'a) * 'a -> packed

let errors_by var_error n t buf =
  for i = 0 to n - 1 do
    buf.(i) <- var_error t i
  done

let best_partners_by cost_after_swap n t culprit buf =
  let best = ref max_int and k = ref 0 in
  for j = 0 to n - 1 do
    if j <> culprit then begin
      let c = cost_after_swap t culprit j in
      if c < !best then begin
        best := c;
        buf.(1) <- j;
        k := 1
      end
      else if c = !best then begin
        incr k;
        buf.(!k) <- j
      end
    end
  done;
  buf.(0) <- !k;
  !best

let packed_name (Packed ((module P), _)) = P.name
let packed_size (Packed ((module P), inst)) = P.size inst
