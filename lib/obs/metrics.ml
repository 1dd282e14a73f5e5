(* Handles are [option]s over the live cells: [None] is the no-op
   handle handed out by the disabled registry, so updating it is one
   pattern-match branch with no allocation and no shared-memory
   traffic. *)

type counter = int Atomic.t option

type gauge = float Atomic.t option

type hist = {
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;
  h_max : float Atomic.t;
  h_buckets : int Atomic.t array;  (* log2 buckets, see mli *)
}

type histogram = hist option

type t = {
  enabled : bool;
  lock : Mutex.t;
  counters : (string, int Atomic.t) Hashtbl.t;
  gauges : (string, float Atomic.t) Hashtbl.t;
  histograms : (string, hist) Hashtbl.t;
}

let make ~enabled =
  {
    enabled;
    lock = Mutex.create ();
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let null = make ~enabled:false

let create () = make ~enabled:true

let enabled t = t.enabled

let find_or_add t table name fresh =
  Mutex.lock t.lock;
  let cell =
    match Hashtbl.find_opt table name with
    | Some c -> c
    | None ->
      let c = fresh () in
      Hashtbl.replace table name c;
      c
  in
  Mutex.unlock t.lock;
  cell

let counter t name =
  if not t.enabled then None
  else Some (find_or_add t t.counters name (fun () -> Atomic.make 0))

let incr = function None -> () | Some c -> Atomic.incr c

let add c n = match c with None -> () | Some c -> ignore (Atomic.fetch_and_add c n)

let incr_get = function None -> 0 | Some c -> Atomic.fetch_and_add c 1 + 1

let gauge t name =
  if not t.enabled then None
  else Some (find_or_add t t.gauges name (fun () -> Atomic.make 0.))

let set g v = match g with None -> () | Some g -> Atomic.set g v

let rec cas_update cell f =
  let cur = Atomic.get cell in
  let next = f cur in
  if next <> cur && not (Atomic.compare_and_set cell cur next) then
    cas_update cell f

let max_gauge g v =
  match g with None -> () | Some g -> cas_update g (fun c -> Float.max c v)

let nbuckets = 64

let fresh_hist () =
  {
    h_count = Atomic.make 0;
    h_sum = Atomic.make 0.;
    h_min = Atomic.make Float.infinity;
    h_max = Atomic.make Float.neg_infinity;
    h_buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
  }

let histogram t name =
  if not t.enabled then None
  else Some (find_or_add t t.histograms name fresh_hist)

(* Bucket 0: v < 1; bucket i >= 1: 2^(i-1) <= v < 2^i. *)
let bucket_index v =
  if not (v >= 1.) then 0
  else begin
    let i = 1 + int_of_float (Float.log2 v) in
    if i < 1 then 1 else if i >= nbuckets then nbuckets - 1 else i
  end

let observe h v =
  match h with
  | None -> ()
  | Some h ->
    Atomic.incr h.h_count;
    Atomic.incr h.h_buckets.(bucket_index v);
    cas_update h.h_sum (fun c -> c +. v);
    cas_update h.h_min (fun c -> Float.min c v);
    cas_update h.h_max (fun c -> Float.max c v)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type hist_snapshot = {
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  buckets : (float * float * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let bucket_bounds i =
  if i = 0 then (0., 1.)
  else (Float.pow 2. (float_of_int (i - 1)), Float.pow 2. (float_of_int i))

let snap_hist h =
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    let c = Atomic.get h.h_buckets.(i) in
    if c > 0 then begin
      let lo, hi = bucket_bounds i in
      buckets := (lo, hi, c) :: !buckets
    end
  done;
  {
    count = Atomic.get h.h_count;
    sum = Atomic.get h.h_sum;
    min_v = Atomic.get h.h_min;
    max_v = Atomic.get h.h_max;
    buckets = !buckets;
  }

let sorted_bindings table f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot t =
  Mutex.lock t.lock;
  let s =
    {
      counters = sorted_bindings t.counters Atomic.get;
      gauges = sorted_bindings t.gauges Atomic.get;
      histograms = sorted_bindings t.histograms snap_hist;
    }
  in
  Mutex.unlock t.lock;
  s

let find_counter s name = List.assoc_opt name s.counters
let find_gauge s name = List.assoc_opt name s.gauges
let find_histogram s name = List.assoc_opt name s.histograms

(* Percentile estimate from the log2 buckets: walk the cumulative
   counts to the bucket containing rank q*count, then interpolate
   linearly inside it. The result is clamped to the exact [min_v,
   max_v] the histogram tracked, which makes constant distributions
   exact and keeps tail estimates from overshooting the largest
   observed value by up to a full power of two. *)
let percentile h q =
  if h.count = 0 then 0.
  else if q <= 0. then h.min_v
  else if q >= 1. then h.max_v
  else begin
    let rank = q *. float_of_int h.count in
    let rec walk seen = function
      | [] -> h.max_v
      | (lo, hi, c) :: rest ->
        let seen' = seen +. float_of_int c in
        if seen' >= rank then begin
          let frac = (rank -. seen) /. float_of_int c in
          lo +. (frac *. (hi -. lo))
        end
        else walk seen' rest
    in
    let v = walk 0. h.buckets in
    Float.min h.max_v (Float.max h.min_v v)
  end

let percentiles h qs = List.map (percentile h) qs
