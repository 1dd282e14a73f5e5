type arg = Int of int | Float of float | Str of string

type event = {
  name : string;
  cat : string;
  ts_ns : int64;
  dur_ns : int64;
  tid : int;
  args : (string * arg) list;
}

(* Per-thread buffer: only its owning thread ever appends, so the
   mutable list needs no synchronization. Buffers are keyed by
   [Thread.id] rather than [Domain.self] because the server runs
   several handler systhreads on domain 0, and pool "helping" lets one
   request's thread execute another request's pieces — two threads on
   the same domain may therefore hit the same sink concurrently (well,
   interleaved under the domain lock, but with context switches between
   a read and a write). The domain-local slot holds an association
   list from thread id to buffer; it is only extended under [lock]
   (once per thread per sink, ever) and read without it — the ref read
   is atomic and the list cells are immutable. *)
type buffer = { tid : int; mutable items : event list }

type t = {
  enabled : bool;
  epoch : int64;
  tags : (string * arg) list;
  key : (int * buffer) list ref Domain.DLS.key;
  lock : Mutex.t;
  mutable buffers : buffer list;
}

let make ~enabled ~tags =
  {
    enabled;
    epoch = Mpl_util.Timer.now_ns ();
    tags;
    key = Domain.DLS.new_key (fun () -> ref []);
    lock = Mutex.create ();
    buffers = [];
  }

let null = make ~enabled:false ~tags:[]

let create ?(tags = []) () = make ~enabled:true ~tags

let enabled t = t.enabled

let buffer_of t =
  let tid = Thread.id (Thread.self ()) in
  let slot = Domain.DLS.get t.key in
  match List.assq_opt tid !slot with
  | Some b -> b
  | None ->
    (* The slot is shared by every systhread on this domain, so the
       read-modify-write below must not interleave with another
       thread's — take the sink lock (which also guards [buffers]). *)
    Mutex.lock t.lock;
    let b =
      match List.assq_opt tid !slot with
      | Some b -> b
      | None ->
        let b = { tid; items = [] } in
        t.buffers <- b :: t.buffers;
        slot := (tid, b) :: !slot;
        b
    in
    Mutex.unlock t.lock;
    b

let default_cat name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let record t ?cat ?(args = []) ~name ~ts_ns ~dur_ns () =
  if t.enabled then begin
    let b = buffer_of t in
    b.items <-
      {
        name;
        cat = (match cat with Some c -> c | None -> default_cat name);
        ts_ns;
        dur_ns;
        tid = b.tid;
        args = (if t.tags == [] then args else args @ t.tags);
      }
      :: b.items
  end

let span t ?cat ?(args = []) ?late_args name f =
  if not t.enabled then f ()
  else begin
    let t0 = Mpl_util.Timer.now_ns () in
    let finish () =
      let t1 = Mpl_util.Timer.now_ns () in
      let args =
        match late_args with Some g -> args @ g () | None -> args
      in
      record t ?cat ~args ~name ~ts_ns:(Int64.sub t0 t.epoch)
        ~dur_ns:(Int64.sub t1 t0) ()
    in
    match f () with
    | x ->
      finish ();
      x
    | exception e ->
      finish ();
      raise e
  end

let events t =
  Mutex.lock t.lock;
  let buffers = t.buffers in
  Mutex.unlock t.lock;
  let all = List.concat_map (fun b -> b.items) buffers in
  (* Ties sort longer-duration first so an enclosing span precedes the
     zero-width children it may have started at the same tick. *)
  List.sort
    (fun a b ->
      let c = Int64.compare a.ts_ns b.ts_ns in
      if c <> 0 then c else Int64.compare b.dur_ns a.dur_ns)
    all
