type stage = Campaign | Fit | Predict | Simulate | Compare | Validate

let all_stages = [ Campaign; Fit; Predict; Simulate; Compare; Validate ]
let default_stages = [ Campaign; Fit; Predict; Simulate; Compare ]

let stage_name = function
  | Campaign -> "campaign"
  | Fit -> "fit"
  | Predict -> "predict"
  | Simulate -> "simulate"
  | Compare -> "compare"
  | Validate -> "validate"

let stage_of_string s =
  List.find_opt (fun st -> stage_name st = s) all_stages

type t = {
  name : string;
  problem : string;
  size : int;
  runs : int;
  seed : int;
  cores : int list;
  metric : [ `Iterations | `Seconds ];
  walk : float option;
  iteration_cap : int option;
  timeout : float option;
  max_iters : int option;
  alpha : float option;
  candidates : string list option;
  stages : stage list;
  validate : Lv_validate.Validate.config option;
  output_dir : string option;
}

let has_stage t stage = List.mem stage t.stages

(* ------------------------------------------------------------------ *)
(* Validation (shared by [make] and the parser)                        *)
(* ------------------------------------------------------------------ *)

let fail fmt = Printf.ksprintf failwith fmt

(* [name] defaults to <problem>-<size> after the problem name is made
   canonical, so "queens" and "n-queens" yield the same label and output
   files.  The name is an output file stem, so it must not leave the
   output directory or name a subdirectory. *)
let validate ?name t =
  let t =
    match Lv_problems.Registry.canonical t.problem with
    | Some p -> { t with problem = p }
    | None ->
      fail "scenario: unknown problem %S (known: %s)" t.problem
        (String.concat ", " Lv_problems.Registry.names)
  in
  let t =
    {
      t with
      name =
        Option.value name ~default:(Printf.sprintf "%s-%d" t.problem t.size);
    }
  in
  if
    t.name = "" || t.name = "." || t.name = ".."
    || String.exists (fun c -> c = '/' || c = '\\') t.name
  then
    fail "scenario: name %S must be a plain file stem (not empty, . or .., \
          no / or \\)" t.name;
  if t.size <= 0 then fail "scenario: size must be positive";
  if t.runs <= 0 then fail "scenario: runs must be positive";
  if t.cores = [] then fail "scenario: cores must be non-empty";
  List.iter
    (fun k -> if k <= 0 then fail "scenario: cores must all be positive")
    t.cores;
  (match t.walk with
  | Some w when not (w >= 0. && w <= 1.) ->
    fail "scenario: walk must lie in [0, 1]"
  | _ -> ());
  (match t.iteration_cap with
  | Some n when n <= 0 -> fail "scenario: iteration-cap must be positive"
  | _ -> ());
  (match t.timeout with
  | Some s when not (Float.is_finite s && s > 0.) ->
    fail "scenario: timeout must be finite positive"
  | _ -> ());
  (match t.max_iters with
  | Some n when n <= 0 -> fail "scenario: max-iters must be positive"
  | _ -> ());
  (match t.alpha with
  | Some a when not (a > 0. && a < 1.) ->
    fail "scenario: alpha must lie in (0, 1)"
  | _ -> ());
  (match t.candidates with
  | Some [] -> fail "scenario: candidates must be non-empty"
  | Some names ->
    List.iter
      (fun n ->
        if Lv_core.Fit.candidate_of_string n = None then
          fail "scenario: unknown candidate %S (known: %s)" n
            (String.concat ", "
               (List.map Lv_core.Fit.candidate_name Lv_core.Fit.all_candidates)))
      names
  | None -> ());
  if t.stages = [] then fail "scenario: stages must be non-empty";
  (* Invariant: the Validate stage and a validation config come and go
     together — asking for the stage fills in the default config, and a
     [validate =] key implies the stage. *)
  let t =
    if has_stage t Validate && t.validate = None then
      { t with validate = Some Lv_validate.Validate.default_config }
    else if t.validate <> None && not (has_stage t Validate) then
      (* Stages are already in pipeline order and Validate comes last. *)
      { t with stages = t.stages @ [ Validate ] }
    else t
  in
  (match t.validate with
  | Some cfg -> (
    try Lv_validate.Validate.check_config cfg
    with Invalid_argument m -> fail "scenario: %s" m)
  | None -> ());
  let requires st prereq =
    if has_stage t st && not (has_stage t prereq) then
      fail "scenario: stage %s requires stage %s" (stage_name st)
        (stage_name prereq)
  in
  requires Fit Campaign;
  requires Simulate Campaign;
  requires Predict Fit;
  requires Compare Predict;
  requires Compare Simulate;
  requires Validate Fit;
  t

(* Stages normalized to pipeline order, deduplicated. *)
let normalize_stages stages =
  List.filter (fun st -> List.mem st stages) all_stages

let make ?name ?(runs = 200) ?(seed = 1) ?(cores = [ 16; 32; 64; 128; 256 ])
    ?(metric = `Iterations) ?walk ?iteration_cap ?timeout ?max_iters ?alpha
    ?candidates ?(stages = default_stages) ?validate:validate_config
    ?output_dir ~problem ~size () =
  validate ?name
    {
      name = "" (* set by [validate] *);
      problem;
      size;
      runs;
      seed;
      cores;
      metric;
      walk;
      iteration_cap;
      timeout;
      max_iters;
      alpha;
      candidates;
      stages = normalize_stages stages;
      validate = validate_config;
      output_dir;
    }

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let trim = String.trim

let normalize_key k =
  String.lowercase_ascii (String.map (function '-' -> '_' | c -> c) (trim k))

let split_list v =
  String.split_on_char ',' v |> List.map trim |> List.filter (fun s -> s <> "")

let of_string ?(path = "<scenario>") text =
  let perr line fmt =
    Printf.ksprintf (fun m -> failwith (Printf.sprintf "%s:%d: %s" path line m)) fmt
  in
  let fields : (string, int * string) Hashtbl.t = Hashtbl.create 16 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line = trim raw in
      if line = "" || line.[0] = '#' || line.[0] = ';' then ()
      else if line.[0] = '[' then begin
        if line <> "[scenario]" then
          perr lineno "unknown section %s (only [scenario] is recognized)" line
      end
      else
        match String.index_opt line '=' with
        | None -> perr lineno "expected 'key = value', got %S" line
        | Some eq ->
          let key = normalize_key (String.sub line 0 eq) in
          let value =
            trim (String.sub line (eq + 1) (String.length line - eq - 1))
          in
          if key = "" then perr lineno "empty key";
          if value = "" then perr lineno "empty value for key %S" key;
          if Hashtbl.mem fields key then perr lineno "duplicate key %S" key;
          Hashtbl.replace fields key (lineno, value))
    lines;
  let take key = Hashtbl.find_opt fields key in
  let used = ref [] in
  let get key =
    used := key :: !used;
    take key
  in
  let get_int key =
    match get key with
    | None -> None
    | Some (line, v) -> (
      match int_of_string_opt v with
      | Some n -> Some n
      | None -> perr line "key %S: %S is not an integer" key v)
  in
  let get_float key =
    match get key with
    | None -> None
    | Some (line, v) -> (
      match float_of_string_opt v with
      | Some f -> Some f
      | None -> perr line "key %S: %S is not a number" key v)
  in
  let get_str key = Option.map snd (get key) in
  let name = get_str "name" in
  let problem =
    match get "problem" with
    | Some (_, p) -> p
    | None -> failwith (Printf.sprintf "%s: missing required key 'problem'" path)
  in
  let size =
    match get_int "size" with
    | Some s -> s
    | None -> failwith (Printf.sprintf "%s: missing required key 'size'" path)
  in
  let runs = get_int "runs" in
  let seed = get_int "seed" in
  let cores =
    match get "cores" with
    | None -> None
    | Some (line, v) ->
      Some
        (List.map
           (fun s ->
             match int_of_string_opt s with
             | Some k -> k
             | None -> perr line "key \"cores\": %S is not an integer" s)
           (split_list v))
  in
  let metric =
    match get "metric" with
    | None -> None
    | Some (_, "iterations") -> Some `Iterations
    | Some (_, "seconds") -> Some `Seconds
    | Some (line, v) ->
      perr line "key \"metric\": expected iterations or seconds, got %S" v
  in
  let walk = get_float "walk" in
  let iteration_cap = get_int "iteration_cap" in
  let timeout = get_float "timeout" in
  let max_iters = get_int "max_iters" in
  let alpha = get_float "alpha" in
  let candidates =
    match get "candidates" with
    | None -> None
    | Some (_, "all") -> None
    | Some (_, "paper") ->
      Some (List.map Lv_core.Fit.candidate_name Lv_core.Fit.paper_candidates)
    | Some (_, v) -> Some (split_list v)
  in
  let stages =
    match get "stages" with
    | None -> None
    | Some (line, v) ->
      Some
        (List.map
           (fun s ->
             match stage_of_string s with
             | Some st -> st
             | None -> perr line "key \"stages\": unknown stage %S" s)
           (split_list v))
  in
  let validate_config =
    match get "validate" with
    | None -> None
    | Some (line, v) -> (
      match String.lowercase_ascii v with
      | "off" | "false" | "no" -> None
      | "on" | "true" | "yes" -> Some Lv_validate.Validate.default_config
      | _ ->
        Some
          (List.fold_left
             (fun (cfg : Lv_validate.Validate.config) item ->
               match String.index_opt item '=' with
               | None ->
                 perr line
                   "key \"validate\": expected on, off or a comma list of \
                    replicates/folds/level/trials = value pairs, got %S"
                   item
               | Some eq ->
                 let k = normalize_key (String.sub item 0 eq) in
                 let v =
                   trim
                     (String.sub item (eq + 1) (String.length item - eq - 1))
                 in
                 let int () =
                   match int_of_string_opt v with
                   | Some n -> n
                   | None ->
                     perr line "key \"validate\": %S is not an integer" v
                 in
                 (match k with
                 | "replicates" ->
                   { cfg with Lv_validate.Validate.replicates = int () }
                 | "folds" -> { cfg with Lv_validate.Validate.folds = int () }
                 | "trials" ->
                   { cfg with Lv_validate.Validate.trials = int () }
                 | "level" -> (
                   match float_of_string_opt v with
                   | Some f -> { cfg with Lv_validate.Validate.level = f }
                   | None ->
                     perr line "key \"validate\": %S is not a number" v)
                 | _ -> perr line "key \"validate\": unknown sub-key %S" k))
             Lv_validate.Validate.default_config (split_list v)))
  in
  let output_dir = get_str "output" in
  (* Every key present in the file must have been consumed above. *)
  Hashtbl.iter
    (fun key (line, _) ->
      if not (List.mem key !used) then perr line "unknown key %S" key)
    fields;
  try
    make ?name ?runs ?seed ?cores ?metric ?walk ?iteration_cap ?timeout
      ?max_iters ?alpha ?candidates ?stages ?validate:validate_config
      ?output_dir ~problem ~size ()
  with Failure m -> failwith (Printf.sprintf "%s: %s" path m)

let of_file path =
  of_string ~path (In_channel.with_open_bin path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Canonical rendering                                                 *)
(* ------------------------------------------------------------------ *)

let to_string t =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let opt key f = function Some v -> line "%s = %s" key (f v) | None -> () in
  line "[scenario]";
  line "name = %s" t.name;
  line "problem = %s" t.problem;
  line "size = %d" t.size;
  line "runs = %d" t.runs;
  line "seed = %d" t.seed;
  line "cores = %s" (String.concat "," (List.map string_of_int t.cores));
  line "metric = %s"
    (match t.metric with `Iterations -> "iterations" | `Seconds -> "seconds");
  opt "walk" (Printf.sprintf "%.17g") t.walk;
  opt "iteration-cap" string_of_int t.iteration_cap;
  opt "timeout" (Printf.sprintf "%.17g") t.timeout;
  opt "max-iters" string_of_int t.max_iters;
  opt "alpha" (Printf.sprintf "%.17g") t.alpha;
  opt "candidates" (String.concat ",") t.candidates;
  opt "validate"
    (fun (c : Lv_validate.Validate.config) ->
      Printf.sprintf "replicates=%d,folds=%d,level=%.17g,trials=%d"
        c.Lv_validate.Validate.replicates c.Lv_validate.Validate.folds
        c.Lv_validate.Validate.level c.Lv_validate.Validate.trials)
    t.validate;
  line "stages = %s" (String.concat "," (List.map stage_name t.stages));
  opt "output" Fun.id t.output_dir;
  Buffer.contents b

let params t =
  Lv_problems.Defaults.params ?walk:t.walk ?max_iterations:t.iteration_cap
    t.problem t.size
