type signature = { n : int; serial : string }

(* The piece's own (original-labeling) serialization: salt, vertex
   count, then each relation's edges as (u, v) pairs with u < v in
   lexicographic order. The runs are sorted and walked with u rising,
   so emitting each v > u of u's run yields exactly that order — the
   order of sorting every edge's (min, max) pair — with no edge list
   and no sort. *)
let signature_salted ~salt ~n ~relations =
  if String.contains salt '\n' then
    invalid_arg "Cache.signature: salt must not contain newlines";
  let buf = Buffer.create (64 + (8 * n)) in
  if salt <> "" then begin
    Buffer.add_string buf salt;
    Buffer.add_char buf '!'
  end;
  Buffer.add_string buf (string_of_int n);
  Array.iter
    (fun (off, nbr) ->
      if Array.length off <> n + 1 then
        invalid_arg "Cache.signature: offsets are not n + 1 long";
      Buffer.add_char buf '|';
      for u = 0 to n - 1 do
        for i = off.(u) to off.(u + 1) - 1 do
          let v = nbr.(i) in
          if v > u then begin
            if v >= n then invalid_arg "Cache.signature: endpoint out of range";
            Buffer.add_string buf (string_of_int u);
            Buffer.add_char buf ',';
            Buffer.add_string buf (string_of_int v);
            Buffer.add_char buf ';'
          end
        done
      done)
    relations;
  { n; serial = Buffer.contents buf }

let signature ~n ~relations = signature_salted ~salt:"" ~n ~relations

(* ------------------------------------------------------------------ *)

type 'v entry = {
  e_serial : string;  (* table key; kept so LRU eviction can unindex *)
  colors : int array;
  check : int;  (* integrity checksum of the entry at store time *)
  value : 'v;
  e_bytes : int;  (* approximate resident size of this entry *)
  (* Intrusive LRU list, most recent first. [None] links mean "end of
     list" — membership is tracked separately ([e_linked]) because the
     single-element list has [None] on both sides too. *)
  mutable e_prev : 'v entry option;  (* towards MRU head *)
  mutable e_next : 'v entry option;  (* towards LRU tail *)
  mutable e_linked : bool;
}

(* FNV-1a-style checksum over the length, the colors, and the serial,
   folded to 30 bits so it stays a small immediate on 32- and 64-bit
   systems. Entries whose stored fields no longer match their checksum
   (memory fault, injected corruption, damaged persist file) are
   detected and dropped in [find] / [load]. *)
let checksum ~serial n colors =
  let h = ref 0x811c9dc5 in
  let mix x = h := (!h lxor x) * 16777619 land 0x3FFFFFFF in
  mix n;
  Array.iter (fun c -> mix (c + 0x100)) colors;
  mix 0x2F;
  String.iter (fun c -> mix (Char.code c)) serial;
  !h

(* Resident-size estimate: the serial dominates, plus one boxed int
   array and the record/links themselves (words, charged at 8 bytes). *)
let make_entry ~serial ~check colors value =
  {
    e_serial = serial;
    colors;
    check;
    value;
    e_bytes = String.length serial + (8 * Array.length colors) + 96;
    e_prev = None;
    e_next = None;
    e_linked = false;
  }

(* Observability handles: all no-ops (and [timed = false], so no clock
   reads) unless [create] was given an enabled metrics registry. *)
type handles = {
  probes : Mpl_obs.Metrics.counter;
  hit_c : Mpl_obs.Metrics.counter;
  stores : Mpl_obs.Metrics.counter;
  corrupt : Mpl_obs.Metrics.counter;
  evict_m : Mpl_obs.Metrics.counter;
  bytes_g : Mpl_obs.Metrics.gauge;
  entries_g : Mpl_obs.Metrics.gauge;
  probe_ns : Mpl_obs.Metrics.histogram;
  store_ns : Mpl_obs.Metrics.histogram;
  timed : bool;
}

type 'v t = {
  table : (string, 'v entry) Hashtbl.t;  (* serial -> entry *)
  lock : Mutex.t;
  hits_c : int Atomic.t;
  misses_c : int Atomic.t;
  mutable entries : int;
  mutable bytes : int;  (* sum of e_bytes over resident entries *)
  byte_budget : int option;
  mutable lru_head : 'v entry option;  (* most recently used *)
  mutable lru_tail : 'v entry option;  (* eviction candidate *)
  corrupt_c : int Atomic.t;  (* entries dropped by checksum validation *)
  evict_c : int Atomic.t;  (* entries evicted by the byte budget *)
  fault : Fault.t;
  h : handles;
}

let make_handles (obs : Mpl_obs.Obs.t) =
  let m = obs.Mpl_obs.Obs.metrics in
  {
    probes = Mpl_obs.Metrics.counter m "cache.probes";
    hit_c = Mpl_obs.Metrics.counter m "cache.hits";
    stores = Mpl_obs.Metrics.counter m "cache.stores";
    corrupt = Mpl_obs.Metrics.counter m "cache.corrupt_drops";
    evict_m = Mpl_obs.Metrics.counter m "cache.evictions";
    bytes_g = Mpl_obs.Metrics.gauge m "cache.bytes";
    entries_g = Mpl_obs.Metrics.gauge m "cache.entries";
    probe_ns = Mpl_obs.Metrics.histogram m "cache.probe_ns";
    store_ns = Mpl_obs.Metrics.histogram m "cache.store_ns";
    timed = Mpl_obs.Metrics.enabled m;
  }

let create ?byte_budget ?(obs = Mpl_obs.Obs.null) ?(fault = Fault.none) () =
  (match byte_budget with
  | Some b when b < 0 -> invalid_arg "Cache.create: negative byte budget"
  | Some _ | None -> ());
  {
    table = Hashtbl.create 256;
    lock = Mutex.create ();
    hits_c = Atomic.make 0;
    misses_c = Atomic.make 0;
    entries = 0;
    bytes = 0;
    byte_budget;
    lru_head = None;
    lru_tail = None;
    corrupt_c = Atomic.make 0;
    evict_c = Atomic.make 0;
    fault;
    h = make_handles obs;
  }

(* Time [f ()] into histogram [h] when metrics are on. [f] never raises
   here (both call sites are total up to programmer error). *)
let timed_ns h hist f =
  if h.timed then begin
    let t0 = Mpl_util.Timer.now_ns () in
    let r = f () in
    Mpl_obs.Metrics.observe hist
      (Int64.to_float (Int64.sub (Mpl_util.Timer.now_ns ()) t0));
    r
  end
  else f ()

(* --- LRU list management; every call site holds [t.lock]. --- *)

let unlink t e =
  if e.e_linked then begin
    (match e.e_prev with
    | Some p -> p.e_next <- e.e_next
    | None -> t.lru_head <- e.e_next);
    (match e.e_next with
    | Some nx -> nx.e_prev <- e.e_prev
    | None -> t.lru_tail <- e.e_prev);
    e.e_prev <- None;
    e.e_next <- None;
    e.e_linked <- false
  end

let push_front t e =
  e.e_prev <- None;
  e.e_next <- t.lru_head;
  (match t.lru_head with Some h -> h.e_prev <- Some e | None -> ());
  t.lru_head <- Some e;
  if t.lru_tail = None then t.lru_tail <- Some e;
  e.e_linked <- true

let publish_size t =
  Mpl_obs.Metrics.set t.h.bytes_g (float_of_int t.bytes);
  Mpl_obs.Metrics.set t.h.entries_g (float_of_int t.entries)

(* Drop [e] from the table and the LRU list; caller holds the lock and
   accounts the drop (eviction vs corruption). *)
let remove_entry t e =
  Hashtbl.remove t.table e.e_serial;
  unlink t e;
  t.entries <- t.entries - 1;
  t.bytes <- t.bytes - e.e_bytes

(* Evict least-recently-used entries until the resident bytes fit the
   budget. Caller holds the lock. *)
let enforce_budget t =
  match t.byte_budget with
  | None -> ()
  | Some budget ->
    let continue = ref true in
    while !continue && t.bytes > budget do
      match t.lru_tail with
      | None -> continue := false
      | Some victim ->
        remove_entry t victim;
        Atomic.incr t.evict_c;
        Mpl_obs.Metrics.incr t.h.evict_m
    done

(* Checksum-validate the entry before reuse; a corrupted entry is
   dropped so the caller falls through to a fresh solve. A valid hit
   moves to the LRU front. *)
let find t s =
  Mpl_obs.Metrics.incr t.h.probes;
  timed_ns t.h t.h.probe_ns (fun () ->
      Mutex.lock t.lock;
      let found =
        match Hashtbl.find_opt t.table s.serial with
        | Some e
          when Array.length e.colors = s.n
               && e.check = checksum ~serial:e.e_serial s.n e.colors ->
          unlink t e;
          push_front t e;
          Some e
        | Some e ->
          remove_entry t e;
          Atomic.incr t.corrupt_c;
          Mpl_obs.Metrics.incr t.h.corrupt;
          publish_size t;
          None
        | None -> None
      in
      Mutex.unlock t.lock;
      match found with
      | Some e ->
        Atomic.incr t.hits_c;
        Mpl_obs.Metrics.incr t.h.hit_c;
        Some (Array.copy e.colors, e.value)
      | None ->
        Atomic.incr t.misses_c;
        None)

(* Shared by [store] and [load]: index + link a fresh entry and apply
   the byte budget, unless its serial is already resident (first writer
   wins, keeping replays deterministic). Caller holds the lock. *)
let insert_locked t entry =
  if Hashtbl.mem t.table entry.e_serial then false
  else begin
    Hashtbl.replace t.table entry.e_serial entry;
    t.entries <- t.entries + 1;
    t.bytes <- t.bytes + entry.e_bytes;
    push_front t entry;
    enforce_budget t;
    publish_size t;
    true
  end

let store t s (colors, value) =
  if Array.length colors <> s.n then
    invalid_arg "Cache.store: coloring length mismatch";
  Mpl_obs.Metrics.incr t.h.stores;
  timed_ns t.h t.h.store_ns (fun () ->
      let colors = Array.copy colors in
      let entry =
        make_entry ~serial:s.serial
          ~check:(checksum ~serial:s.serial s.n colors)
          colors value
      in
      (* Injected corruption happens *after* the checksum is computed, so
         the mismatch is what [find] detects and drops. *)
      if Fault.fires t.fault Fault.Cache_corrupt && s.n > 0 then
        colors.(0) <- colors.(0) + 7919;
      Mutex.lock t.lock;
      ignore (insert_locked t entry);
      Mutex.unlock t.lock)

let hits t = Atomic.get t.hits_c
let misses t = Atomic.get t.misses_c
let corrupt_drops t = Atomic.get t.corrupt_c
let evictions t = Atomic.get t.evict_c

let length t =
  Mutex.lock t.lock;
  let n = t.entries in
  Mutex.unlock t.lock;
  n

let bytes t =
  Mutex.lock t.lock;
  let b = t.bytes in
  Mutex.unlock t.lock;
  b

type stats = {
  entries : int;
  resident_bytes : int;
  byte_budget : int option;
  s_hits : int;
  s_misses : int;
  s_corrupt_drops : int;
  s_evictions : int;
}

let stats t =
  Mutex.lock t.lock;
  let entries = t.entries and resident_bytes = t.bytes in
  Mutex.unlock t.lock;
  {
    entries;
    resident_bytes;
    byte_budget = t.byte_budget;
    s_hits = Atomic.get t.hits_c;
    s_misses = Atomic.get t.misses_c;
    s_corrupt_drops = Atomic.get t.corrupt_c;
    s_evictions = Atomic.get t.evict_c;
  }

(* ------------------------------------------------------------------ *)
(* Disk persistence. Line-oriented format, one header plus three lines
   per entry:

     mplcache 2 <nentries>
     <serial>
     <check> <n> <c0> ... <c(n-1)>
     <value line>

   Serials are '|'/','/';'/'!'/digit strings by construction (plus a
   caller salt, which [signature] rejects if it contains a newline), so
   every field is single-line safe. Entries are written LRU-first:
   reloading pushes each entry to the LRU front, so the reloaded cache
   reproduces the saved recency order. Each entry is validated against
   its stored checksum on load — a corrupted line drops exactly that
   entry, never its neighbours. *)

let version = "2"

let save t ~value_to_string path =
  Mutex.lock t.lock;
  (* Collect LRU-first (tail to head) under the lock. *)
  let entries = ref [] in
  let cur = ref t.lru_tail in
  let continue = ref true in
  while !continue do
    match !cur with
    | None -> continue := false
    | Some e ->
      entries := e :: !entries;
      cur := e.e_prev
  done;
  let entries = List.rev !entries in
  Mutex.unlock t.lock;
  let buf = Buffer.create (4096 + (128 * List.length entries)) in
  Buffer.add_string buf
    (Printf.sprintf "mplcache %s %d\n" version (List.length entries));
  List.iter
    (fun e ->
      let v = value_to_string e.value in
      if String.contains v '\n' then
        invalid_arg "Cache.save: serialized value contains a newline";
      Buffer.add_string buf e.e_serial;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (string_of_int e.check);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int (Array.length e.colors));
      Array.iter
        (fun c ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int c))
        e.colors;
      Buffer.add_char buf '\n';
      Buffer.add_string buf v;
      Buffer.add_char buf '\n')
    entries;
  (* Atomic publish: write to a sibling temp file, then rename. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Sys.rename tmp path

exception Bad_file of string

let load t ~value_of_string path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let line () = try Some (input_line ic) with End_of_file -> None in
  let header =
    match line () with
    | Some h -> h
    | None -> raise (Bad_file "empty cache file")
  in
  let count =
    match String.split_on_char ' ' header with
    | [ "mplcache"; v; n ] when v = version -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> n
      | Some _ | None -> raise (Bad_file "bad entry count"))
    | "mplcache" :: v :: _ when v <> version ->
      raise (Bad_file (Printf.sprintf "unsupported cache file version %s" v))
    | _ -> raise (Bad_file "bad cache file header")
  in
  let parse_colors serial colors_line =
    match String.split_on_char ' ' colors_line with
    | check :: n :: colors -> (
      match (int_of_string_opt check, int_of_string_opt n) with
      | Some check, Some n when n >= 0 && List.length colors = n ->
        let cs = List.map int_of_string_opt colors in
        if List.mem None cs then None
        else
          let colors = Array.of_list (List.map Option.get cs) in
          if check = checksum ~serial n colors then Some (check, colors)
          else None
      | _ -> None)
    | _ -> None
  in
  let loaded = ref 0 and dropped = ref 0 in
  (try
     for _ = 1 to count do
       match (line (), line (), line ()) with
       | Some serial, Some colors_line, Some value_line -> (
         match
           Option.bind (parse_colors serial colors_line) (fun (check, colors) ->
               Option.map
                 (make_entry ~serial ~check colors)
                 (value_of_string value_line))
         with
         | None -> incr dropped
         | Some entry ->
           Mutex.lock t.lock;
           if insert_locked t entry then incr loaded else incr dropped;
           Mutex.unlock t.lock)
       | _ ->
         (* Truncated file: keep what we have. *)
         incr dropped;
         raise Exit
     done
   with Exit -> ());
  (!loaded, !dropped)
