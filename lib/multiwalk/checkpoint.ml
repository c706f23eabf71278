type entry = {
  run : int;
  seed : int;
  iterations : int;
  seconds : float;
  solved : bool;
}

let entry_of_observation ~run ~seed (o : Run.observation) =
  {
    run;
    seed;
    iterations = o.Run.iterations;
    seconds = o.Run.seconds;
    solved = o.Run.solved;
  }

let observation_of_entry e =
  { Run.seconds = e.seconds; iterations = e.iterations; solved = e.solved }

(* The layout is drawn in the interface. *)
let magic = "LVRUNLOG"
let version = 1L
let header_size = 16
let record_size = 40

let header =
  let b = Bytes.create header_size in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_int64_le b 8 version;
  Bytes.to_string b

let[@inline] step h w = Int64.mul (Int64.logxor h w) 0x9E3779B97F4A7C15L

(* The check of the record at [off], from its first 36 bytes. *)
let check b off =
  let h = step 0x243F6A8885A308D3L (Bytes.get_int64_le b off) in
  let h = step h (Bytes.get_int64_le b (off + 8)) in
  let h = step h (Bytes.get_int64_le b (off + 16)) in
  let h = step h (Bytes.get_int64_le b (off + 24)) in
  let h = step h (Int64.of_int32 (Bytes.get_int32_le b (off + 32))) in
  Int64.to_int (Int64.shift_right_logical h 32)

let[@inline] u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF
let[@inline] int_at b off = Int64.to_int (Bytes.get_int64_le b off)
let[@inline] seconds_at b off = Int64.float_of_bits (Bytes.get_int64_le b (off + 24))
let[@inline] solved_at b off = u32 b (off + 32) = 1

(* Checks the header and every whole record of the log [b] read from
   [path], calls [f] on each record's offset in file order, and returns
   the number of whole records. *)
let decode path b f =
  let fail fmt =
    Printf.ksprintf (fun msg -> failwith ("Checkpoint: " ^ path ^ ": " ^ msg)) fmt
  in
  let len = Bytes.length b in
  if len > 0 && Bytes.get b 0 = '{' then
    fail
      "a JSON Lines run-log, written by an earlier version; this version \
       reads only binary run-logs";
  let whole = min len header_size in
  if Bytes.sub_string b 0 whole <> String.sub header 0 whole then begin
    if whole = header_size && Bytes.sub_string b 0 8 = magic then
      fail "run-log version %Ld, expected %Ld" (Bytes.get_int64_le b 8) version
    else fail "not a run-log (bad magic)"
  end;
  if len < header_size then 0
  else begin
    let n = (len - header_size) / record_size in
    for i = 0 to n - 1 do
      let off = header_size + (i * record_size) in
      if u32 b (off + 36) <> check b off then fail "record %d fails its check" i;
      if u32 b (off + 32) land lnot 1 <> 0 then
        fail "record %d has unknown flags" i;
      f off
    done;
    n
  end

(* A missing file is [None].  Anything but a regular file is refused
   before it is opened: a device or a pipe may never end. *)
let read path =
  if not (Sys.file_exists path) then None
  else if (Unix.stat path).Unix.st_kind <> Unix.S_REG then
    failwith ("Checkpoint: " ^ path ^ ": not a regular file")
  else
    Some
      (In_channel.with_open_bin path (fun ic ->
           let b = Bytes.create (in_channel_length ic) in
           really_input ic b 0 (Bytes.length b);
           b))

let load path =
  match read path with
  | None -> []
  | Some b ->
    let entries = ref [] in
    ignore
      (decode path b (fun off ->
           let e =
             {
               run = int_at b off;
               seed = int_at b (off + 8);
               iterations = int_at b (off + 16);
               seconds = seconds_at b off;
               solved = solved_at b off;
             }
           in
           entries := e :: !entries));
    List.rev !entries

type columns = {
  iterations : int array;
  seconds : float array;
  solved : bool array;
  restored : bool array;
}

let columns ~runs =
  {
    iterations = Array.make runs 0;
    seconds = Array.make runs 0.;
    solved = Array.make runs false;
    restored = Array.make runs false;
  }

let restore path ~seed cols =
  let runs = Array.length cols.restored in
  let foreign = ref None in
  (match read path with
  | None -> ()
  | Some b ->
    ignore
      (decode path b (fun off ->
           let r = int_at b off in
           if r >= 0 && r < runs then begin
             let s = int_at b (off + 8) in
             if s <> Run.seed ~seed r && Option.is_none !foreign then
               foreign := Some (r, s);
             cols.iterations.(r) <- int_at b (off + 16);
             cols.seconds.(r) <- seconds_at b off;
             cols.solved.(r) <- solved_at b off;
             cols.restored.(r) <- true
           end)));
  !foreign

type writer = { oc : out_channel; record : Bytes.t; wlock : Mutex.t }

let with_writer path f =
  (* Appends go after what [load] reads: a torn tail is cut off, and a
     log without a whole header starts over with one. *)
  let kept =
    match read path with
    | None -> 0
    | Some b ->
      let n = decode path b ignore in
      let kept =
        if Bytes.length b < header_size then 0
        else header_size + (n * record_size)
      in
      if kept < Bytes.length b then Unix.truncate path kept;
      kept
  in
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path
  in
  Lv_telemetry.File.with_channel path oc (fun oc ->
      if kept = 0 then output_string oc header;
      f { oc; record = Bytes.create record_size; wlock = Mutex.create () })

let append w e =
  Mutex.protect w.wlock (fun () ->
      let b = w.record in
      Bytes.set_int64_le b 0 (Int64.of_int e.run);
      Bytes.set_int64_le b 8 (Int64.of_int e.seed);
      Bytes.set_int64_le b 16 (Int64.of_int e.iterations);
      Bytes.set_int64_le b 24 (Int64.bits_of_float e.seconds);
      Bytes.set_int32_le b 32 (if e.solved then 1l else 0l);
      Bytes.set_int32_le b 36 (Int32.of_int (check b 0));
      output_bytes w.oc b;
      (* Flush per record: the OS keeps flushed data if the process is
         killed, which is the crash model here (power loss would need
         fsync — deliberately not paid per run). *)
      flush w.oc)
