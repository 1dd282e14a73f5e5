(* Line-oriented (JSONL) log writer with size-based rotation. The
   server's access log goes through one of these; writes come from
   concurrent handler threads, so the channel, size accounting and
   rotation are all guarded by one mutex. Rotation is rename-based:
   when the current file would exceed [max_bytes] the channel is
   closed, the file renamed to [path ^ ".1"] (clobbering any previous
   rotation), and a fresh file opened — a crash can lose at most the
   line being written. *)

type t = {
  path : string;
  max_bytes : int;
  lock : Mutex.t;
  mutable oc : out_channel;
  mutable size : int;
  mutable rotations : int;
}

let default_max_bytes = 8 * 1024 * 1024

let open_out_sized path =
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
  in
  (oc, out_channel_length oc)

let open_ ?(max_bytes = default_max_bytes) path =
  let oc, size = open_out_sized path in
  {
    path;
    max_bytes = (if max_bytes < 1 then 1 else max_bytes);
    lock = Mutex.create ();
    oc;
    size;
    rotations = 0;
  }

let rotations t =
  Mutex.lock t.lock;
  let r = t.rotations in
  Mutex.unlock t.lock;
  r

let rotate_locked t =
  close_out_noerr t.oc;
  (try Sys.rename t.path (t.path ^ ".1") with Sys_error _ -> ());
  let oc, size = open_out_sized t.path in
  t.oc <- oc;
  t.size <- size;
  t.rotations <- t.rotations + 1

let write t line =
  let n = String.length line + 1 in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if t.size > 0 && t.size + n > t.max_bytes then rotate_locked t;
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc;
      t.size <- t.size + n)

let close t =
  Mutex.lock t.lock;
  close_out_noerr t.oc;
  Mutex.unlock t.lock
