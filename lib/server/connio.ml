(* Non-blocking connection I/O with select-based deadlines.

   The in_channel-based transport this replaces had two lifecycle
   holes: a blocking [write] could pin a handler thread forever behind
   a reader that stopped draining its socket, and [input_line] gave no
   way to bound how long a half-sent request header may dangle
   (slowloris). Everything here funnels through two primitives —
   [wait_io] (select with an absolute monotonic deadline) and
   [write_all] — so every path is bounded and every peer-gone errno is
   mapped to a result instead of an exception. *)

type werr = Timeout | Closed

type t = {
  cfd : Unix.file_descr;
  fault : Mpl_engine.Fault.t;
  rbuf : Bytes.t;
  mutable rpos : int;  (* consumed prefix of rbuf *)
  mutable rend : int;  (* filled prefix of rbuf *)
  out : Buffer.t;
  read_timeout_s : float;  (* <= 0: unbounded *)
  write_timeout_s : float;  (* <= 0: unbounded *)
  mutable dead : bool;
  mutable closed : bool;
}

let rbuf_size = 8192
let flush_threshold = 8192
let max_line = 1 lsl 16

let create ?(fault = Mpl_engine.Fault.none) ?(read_timeout_s = 10.)
    ?(write_timeout_s = 10.) cfd =
  Unix.set_nonblock cfd;
  {
    cfd;
    fault;
    rbuf = Bytes.create rbuf_size;
    rpos = 0;
    rend = 0;
    out = Buffer.create 1024;
    read_timeout_s;
    write_timeout_s;
    dead = false;
    closed = false;
  }

let alive t = (not t.dead) && not t.closed

let shutdown t = try Unix.shutdown t.cfd Unix.SHUTDOWN_ALL with _ -> ()

let close t =
  t.dead <- true;
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.cfd with _ -> ()
  end

(* Absolute deadline for one logical wait; None = unbounded. *)
let arm timeout_s =
  if timeout_s <= 0. then None
  else
    Some
      (Int64.add (Mpl_util.Timer.now_ns ())
         (Int64.of_float (timeout_s *. 1e9)))

(* Wait until the fd is readable/writable or the deadline passes.
   EINTR never consumes the deadline budget by accident: the remaining
   time is recomputed from the absolute deadline each retry. *)
let rec wait_io t ~deadline ~write =
  let tmo =
    match deadline with
    | None -> -1.
    | Some d ->
      let left = Int64.sub d (Mpl_util.Timer.now_ns ()) in
      if left <= 0L then 0. else Int64.to_float left /. 1e9
  in
  if tmo = 0. then Error Timeout
  else
    let rd = if write then [] else [ t.cfd ] in
    let wr = if write then [ t.cfd ] else [] in
    match Unix.select rd wr [] tmo with
    | [], [], _ -> if deadline = None then wait_io t ~deadline ~write else Error Timeout
    | _ -> Ok ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      wait_io t ~deadline ~write

(* One non-blocking read into [buf]. [Ok 0] is EOF; a peer-reset errno
   is EOF too (the distinction never matters to a reader). *)
let rec read_once t buf off len ~deadline =
  match Unix.read t.cfd buf off len with
  | n -> Ok n
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    read_once t buf off len ~deadline
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
    match wait_io t ~deadline ~write:false with
    | Ok () -> read_once t buf off len ~deadline
    | Error Timeout -> Error `Timeout
    | Error Closed -> Ok 0)
  | exception
      Unix.Unix_error
        ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.ENOTCONN), _, _)
    ->
    Ok 0

let refill t ~deadline =
  match read_once t t.rbuf 0 (Bytes.length t.rbuf) ~deadline with
  | Ok n ->
    t.rpos <- 0;
    t.rend <- n;
    Ok n
  | Error _ as e -> e

let read_line ?(timed = false) t =
  if not (alive t) then Error `Eof
  else begin
    let acc = Buffer.create 80 in
    let rec go () =
      let nl = ref (-1) in
      (let i = ref t.rpos in
       while !nl < 0 && !i < t.rend do
         if Bytes.get t.rbuf !i = '\n' then nl := !i;
         incr i
       done);
      if !nl >= 0 then begin
        Buffer.add_subbytes acc t.rbuf t.rpos (!nl - t.rpos);
        t.rpos <- !nl + 1;
        if Buffer.length acc > max_line then begin
          t.dead <- true;
          Error `Too_long
        end
        else Ok (Buffer.contents acc)
      end
      else begin
        Buffer.add_subbytes acc t.rbuf t.rpos (t.rend - t.rpos);
        t.rpos <- 0;
        t.rend <- 0;
        if Buffer.length acc > max_line then begin
          t.dead <- true;
          Error `Too_long
        end
        else begin
          (* Idle between requests: wait forever (unless [timed]).
             Mid-line: the read timeout bounds how long a half-sent
             header may dangle. *)
          let deadline =
            if Buffer.length acc = 0 && not timed then None
            else arm t.read_timeout_s
          in
          match refill t ~deadline with
          | Ok 0 ->
            t.dead <- true;
            Error `Eof
          | Ok _ -> go ()
          | Error `Timeout ->
            t.dead <- true;
            Error `Timeout
        end
      end
    in
    go ()
  end

let read_exact t n =
  if not (alive t) then Error `Eof
  else if Mpl_engine.Fault.fires t.fault Mpl_engine.Fault.Conn_drop then begin
    shutdown t;
    t.dead <- true;
    Error `Eof
  end
  else begin
    let out = Bytes.create n in
    let have = min n (t.rend - t.rpos) in
    Bytes.blit t.rbuf t.rpos out 0 have;
    t.rpos <- t.rpos + have;
    if t.rpos = t.rend then begin
      t.rpos <- 0;
      t.rend <- 0
    end;
    let rec go filled =
      if filled >= n then Ok (Bytes.unsafe_to_string out)
      else begin
        (* A fresh deadline per read: progress resets the clock, so
           only a genuinely stalled upload trips it. *)
        match read_once t out filled (n - filled) ~deadline:(arm t.read_timeout_s) with
        | Ok 0 ->
          t.dead <- true;
          Error `Eof
        | Ok r -> go (filled + r)
        | Error `Timeout ->
          t.dead <- true;
          Error `Timeout
      end
    in
    go have
  end

let rec write_all t buf off len ~deadline =
  if len = 0 then Ok ()
  else
    match Unix.single_write t.cfd buf off len with
    | n -> write_all t buf (off + n) (len - n) ~deadline
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      write_all t buf off len ~deadline
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
      match wait_io t ~deadline ~write:true with
      | Ok () -> write_all t buf off len ~deadline
      | Error _ ->
        t.dead <- true;
        Error Timeout)
    | exception
        Unix.Unix_error
          ( ( Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN
            | Unix.ESHUTDOWN ),
            _,
            _ ) ->
      t.dead <- true;
      Error Closed

let flush t =
  if t.dead then Error Closed
  else if Buffer.length t.out = 0 then Ok ()
  else begin
    let data = Buffer.to_bytes t.out in
    Buffer.clear t.out;
    (* One absolute deadline for the whole buffer: a reader draining
       one byte per second cannot stretch the flush indefinitely. *)
    write_all t data 0 (Bytes.length data) ~deadline:(arm t.write_timeout_s)
  end

let send t s =
  if t.dead then Error Closed
  else if Mpl_engine.Fault.fires t.fault Mpl_engine.Fault.Conn_drop then begin
    shutdown t;
    t.dead <- true;
    Error Closed
  end
  else if Mpl_engine.Fault.fires t.fault Mpl_engine.Fault.Write_stall
  then begin
    (* Models a reader that stopped draining: the outcome of a real
       stall (write deadline exhausted), without the wait. *)
    t.dead <- true;
    Error Timeout
  end
  else if Mpl_engine.Fault.fires t.fault Mpl_engine.Fault.Torn_frame
  then begin
    ignore (flush t);
    let half = String.length s / 2 in
    ignore
      (write_all t (Bytes.of_string s) 0 half ~deadline:(arm t.write_timeout_s));
    shutdown t;
    t.dead <- true;
    Error Closed
  end
  else begin
    Buffer.add_string t.out s;
    if Buffer.length t.out >= flush_threshold then flush t else Ok ()
  end
