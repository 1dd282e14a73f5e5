(* Process clocks and memory, read from the OS rather than the program
   under test. *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wall_s () = Mpl_util.Timer.now_s ()

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0.
  | Some s ->
    let kb = ref 0. in
    List.iter
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%f" (fun f -> kb := f)
        | _ -> ())
      (String.split_on_char '\n' s);
    !kb /. 1024.

(* CPU time of another process, summed over its live threads from
   schedstat (nanosecond resolution, unlike the tick counts in stat). *)
let process_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0.
  | tids ->
    Array.fold_left
      (fun acc tid ->
        match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
        | Some s -> (
          match Scanf.sscanf s "%Ld" Fun.id with
          | ns -> acc +. (Int64.to_float ns /. 1e9)
          | exception _ -> acc)
        | None -> acc)
      0. tids

let thread_count pid =
  match Sys.readdir (Printf.sprintf "/proc/%d/task" pid) with
  | tids -> Array.length tids
  | exception Sys_error _ -> 0

(* A fixed CPU loop that touches no repository code: a machine-speed
   reference, reported next to the metrics and never divided into
   them. *)
let cpu_probe_s () =
  let c0 = cpu_s () in
  let x = ref 0x2545F491 and acc = ref 0. in
  for _ = 1 to 30_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    acc := !acc +. (float_of_int (!x land 1023) *. 1e-3)
  done;
  ignore (Sys.opaque_identity !acc);
  cpu_s () -. c0
