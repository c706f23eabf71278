type t = {
  pool : Lv_exec.Pool.t option;
  telemetry : Lv_telemetry.Sink.t;
  alpha : float;
  cache_dir : string option;
}

let default =
  { pool = None; telemetry = Lv_telemetry.Sink.null; alpha = 0.05; cache_dir = None }

let with_pool pool t = { t with pool = Some pool }
let with_telemetry telemetry t = { t with telemetry }
let with_cache_dir dir t = { t with cache_dir = Some dir }

let make ?pool ?(telemetry = Lv_telemetry.Sink.null) ?cache_dir () =
  { default with pool; telemetry; cache_dir }
