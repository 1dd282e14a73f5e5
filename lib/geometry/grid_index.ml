module Intbuf = Mpl_util.Intbuf

(* Flat uniform grid. Entries live in parallel coordinate buffers; the
   first query compiles a CSR bucket table (bucket -> entry slots) and a
   per-entry stamp array. Queries then dedup candidates by bumping a
   global epoch and stamping visited slots — no per-call Hashtbl, no
   per-candidate allocation. Adding after a freeze just marks the table
   stale; the next query rebuilds it.

   A bucket is one grid cell. When the cell bounding box of all entries
   is compact (at most [dense_factor] cells per cell incidence), the
   buckets are every cell of that box in cx-major order and a cell's
   bucket is plain arithmetic. Otherwise only the occupied cells get
   buckets, found through a hash table. Either way a region is visited
   cx-major, then cy, then by slot in insertion order, so the visit
   order — and every caller's output — does not depend on the table. *)

(* The dense offsets cost one word per cell of the bounding box; the
   sparse table about six per incidence (a 4-word binding and an
   offset per occupied cell, a bucket slot per incidence). At 8 the
   dense table is at most ~1.3x larger and still faster. Measured
   graph-build indexes: 1.3-3.8 cells per incidence for neighbor
   search and the gen-synth and S-circuit stitch split, 4.2-6.0 for
   the stitch split of the C-circuits and of synths with stitch
   gadgets (perfbench synth-cold), so all of them are dense. *)
let dense_factor = 8

(* Sparse-table keys are packed cells (see [pack]). The stdlib int hash
   folds the high half of the key onto the low half, which maps a
   compact block of packed cells onto few hashes, and a single multiply
   only carries a cell's cx into high bits the bucket index never reads.
   The splitmix64 finalizer (constants cut to 63-bit ints) feeds every
   key bit into the low bits. *)
module Cell_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash k =
    let h = (k lxor (k lsr 30)) * 0x3F58476D1CE4E5B9 in
    let h = (h lxor (h lsr 27)) * 0x14D049BB133111EB in
    (h lxor (h lsr 31)) land max_int
end)

type table =
  | Dense of { cx0 : int; cy0 : int; w : int; h : int }
      (* bucket of cell (cx, cy) = (cx - cx0) * h + (cy - cy0) *)
  | Sparse of int Cell_tbl.t (* packed cell -> bucket *)

type stats = { cells : int; incidences : int; dense : bool; max_chain : int }

type t = {
  cell : int;
  ids : Intbuf.t; (* slot -> caller id *)
  bx0 : Intbuf.t;
  by0 : Intbuf.t;
  bx1 : Intbuf.t;
  by1 : Intbuf.t;
  mutable table : table;
  mutable bucket_off : int array; (* bucket -> first slot in items *)
  mutable bucket_items : int array; (* entry slots, grouped by bucket *)
  mutable stamp : int array; (* slot -> epoch of last visit *)
  mutable epoch : int;
  mutable frozen : int; (* entry count covered by the bucket table *)
}

let empty_table = Dense { cx0 = 0; cy0 = 0; w = 0; h = 0 }

let create ~cell =
  if cell <= 0 then invalid_arg "Grid_index.create: cell must be positive";
  {
    cell;
    ids = Intbuf.create ();
    bx0 = Intbuf.create ();
    by0 = Intbuf.create ();
    bx1 = Intbuf.create ();
    by1 = Intbuf.create ();
    table = empty_table;
    bucket_off = [| 0 |];
    bucket_items = [||];
    stamp = [||];
    epoch = 0;
    frozen = 0;
  }

(* Cells are packed into one int. Layout coordinates divided by the cell
   size stay far below 2^29, so the packing is injective. *)
let pack cx cy = (cx * 0x40000000) + cy

let floor_div t c = if c >= 0 then c / t.cell else (c - t.cell + 1) / t.cell

let add t id (box : Rect.t) =
  Intbuf.push t.ids id;
  Intbuf.push t.bx0 box.Rect.x0;
  Intbuf.push t.by0 box.Rect.y0;
  Intbuf.push t.bx1 box.Rect.x1;
  Intbuf.push t.by1 box.Rect.y1;
  t.frozen <- -1

(* [f e cx cy] for every cell incidence, entries in insertion order. *)
let iter_incidences t f =
  for e = 0 to Intbuf.length t.ids - 1 do
    let cx0 = floor_div t (Intbuf.unsafe_get t.bx0 e)
    and cx1 = floor_div t (Intbuf.unsafe_get t.bx1 e)
    and cy0 = floor_div t (Intbuf.unsafe_get t.by0 e)
    and cy1 = floor_div t (Intbuf.unsafe_get t.by1 e) in
    for cx = cx0 to cx1 do
      for cy = cy0 to cy1 do
        f e cx cy
      done
    done
  done

(* Pick the table from the cell bounding box and the incidence count;
   a sparse table also numbers its occupied cells in first-seen order. *)
let plan_table t =
  let n = Intbuf.length t.ids in
  if n = 0 then empty_table
  else begin
    let x0 = ref max_int and y0 = ref max_int in
    let x1 = ref min_int and y1 = ref min_int in
    let inc = ref 0 in
    for e = 0 to n - 1 do
      let cx0 = floor_div t (Intbuf.unsafe_get t.bx0 e)
      and cx1 = floor_div t (Intbuf.unsafe_get t.bx1 e)
      and cy0 = floor_div t (Intbuf.unsafe_get t.by0 e)
      and cy1 = floor_div t (Intbuf.unsafe_get t.by1 e) in
      if cx0 < !x0 then x0 := cx0;
      if cx1 > !x1 then x1 := cx1;
      if cy0 < !y0 then y0 := cy0;
      if cy1 > !y1 then y1 := cy1;
      inc := !inc + ((cx1 - cx0 + 1) * (cy1 - cy0 + 1))
    done;
    let w = !x1 - !x0 + 1 and h = !y1 - !y0 + 1 in
    (* w * h <= dense_factor * inc, without the overflowing product. *)
    if w <= dense_factor * !inc / h then
      Dense { cx0 = !x0; cy0 = !y0; w; h }
    else begin
      let tbl = Cell_tbl.create !inc in
      iter_incidences t (fun _ cx cy ->
          let key = pack cx cy in
          if not (Cell_tbl.mem tbl key) then
            Cell_tbl.add tbl key (Cell_tbl.length tbl));
      Sparse tbl
    end
  end

let freeze t =
  let n = Intbuf.length t.ids in
  if t.frozen <> n then begin
    let table = plan_table t in
    let nb, bucket =
      match table with
      | Dense { cx0; cy0; w; h } ->
        (w * h, fun cx cy -> ((cx - cx0) * h) + cy - cy0)
      | Sparse tbl ->
        (Cell_tbl.length tbl, fun cx cy -> Cell_tbl.find tbl (pack cx cy))
    in
    (* Count per bucket into off.(b + 1), prefix-sum to bucket starts,
       then scatter slots with off.(b) as the cursor; the scatter leaves
       off.(b) at bucket b's end, so one shift restores the starts. *)
    let off = Array.make (nb + 1) 0 in
    iter_incidences t (fun _ cx cy ->
        let b = bucket cx cy + 1 in
        Array.unsafe_set off b (Array.unsafe_get off b + 1));
    for b = 1 to nb do
      off.(b) <- off.(b) + off.(b - 1)
    done;
    let items = Array.make off.(nb) 0 in
    iter_incidences t (fun e cx cy ->
        let b = bucket cx cy in
        let s = Array.unsafe_get off b in
        Array.unsafe_set items s e;
        Array.unsafe_set off b (s + 1));
    for b = nb downto 1 do
      off.(b) <- off.(b - 1)
    done;
    off.(0) <- 0;
    t.table <- table;
    t.bucket_off <- off;
    t.bucket_items <- items;
    t.stamp <- Array.make n 0;
    t.epoch <- 0;
    t.frozen <- n
  end

let stats t =
  freeze t;
  let incidences = Array.length t.bucket_items in
  match t.table with
  | Dense { w; h; _ } ->
    { cells = w * h; incidences; dense = true; max_chain = 0 }
  | Sparse tbl ->
    {
      cells = Cell_tbl.length tbl;
      incidences;
      dense = false;
      max_chain = (Cell_tbl.stats tbl).Hashtbl.max_bucket_length;
    }

let span_args t =
  let s = stats t in
  Mpl_obs.Sink.
    [
      ("cells", Int s.cells);
      ("incidences", Int s.incidences);
      ("dense", Int (Bool.to_int s.dense));
    ]

(* Visit every not-yet-stamped slot of bucket [b]. *)
let visit_bucket t ~epoch b f =
  let stamp = t.stamp in
  let off = t.bucket_off in
  for s = Array.unsafe_get off b to Array.unsafe_get off (b + 1) - 1 do
    let e = Array.unsafe_get t.bucket_items s in
    if Array.unsafe_get stamp e <> epoch then begin
      Array.unsafe_set stamp e epoch;
      f e
    end
  done

(* Visit every entry slot bucketed under a cell of the (already grown)
   box exactly once, using the epoch stamps for dedup. *)
let visit_region t ~gx0 ~gy0 ~gx1 ~gy1 f =
  freeze t;
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  let cx0 = floor_div t gx0
  and cx1 = floor_div t gx1
  and cy0 = floor_div t gy0
  and cy1 = floor_div t gy1 in
  match t.table with
  | Dense d ->
    let y0 = max cy0 d.cy0 and y1 = min cy1 (d.cy0 + d.h - 1) in
    for cx = max cx0 d.cx0 to min cx1 (d.cx0 + d.w - 1) do
      let row = ((cx - d.cx0) * d.h) - d.cy0 in
      for cy = y0 to y1 do
        visit_bucket t ~epoch (row + cy) f
      done
    done
  | Sparse tbl ->
    for cx = cx0 to cx1 do
      for cy = cy0 to cy1 do
        match Cell_tbl.find tbl (pack cx cy) with
        | b -> visit_bucket t ~epoch b f
        | exception Not_found -> ()
      done
    done

(* Closed-interval touch test against the grown box, on raw coords. *)
let touches t e ~gx0 ~gy0 ~gx1 ~gy1 =
  gx0 <= Intbuf.unsafe_get t.bx1 e
  && Intbuf.unsafe_get t.bx0 e <= gx1
  && gy0 <= Intbuf.unsafe_get t.by1 e
  && Intbuf.unsafe_get t.by0 e <= gy1

let query t (r : Rect.t) ~radius =
  let gx0 = r.Rect.x0 - radius
  and gy0 = r.Rect.y0 - radius
  and gx1 = r.Rect.x1 + radius
  and gy1 = r.Rect.y1 + radius in
  let out = ref [] in
  visit_region t ~gx0 ~gy0 ~gx1 ~gy1 (fun e ->
      if touches t e ~gx0 ~gy0 ~gx1 ~gy1 then
        out := Intbuf.unsafe_get t.ids e :: !out);
  !out

let iter_pairs t ~radius f =
  freeze t;
  let n = Intbuf.length t.ids in
  (* Visit each entry once; sweep the grid for candidate partners and
     report the pair only from the lower id so it fires exactly once. *)
  for e = 0 to n - 1 do
    let id = Intbuf.unsafe_get t.ids e in
    let gx0 = Intbuf.unsafe_get t.bx0 e - radius
    and gy0 = Intbuf.unsafe_get t.by0 e - radius
    and gx1 = Intbuf.unsafe_get t.bx1 e + radius
    and gy1 = Intbuf.unsafe_get t.by1 e + radius in
    visit_region t ~gx0 ~gy0 ~gx1 ~gy1 (fun e' ->
        let id' = Intbuf.unsafe_get t.ids e' in
        if id' > id && touches t e' ~gx0 ~gy0 ~gx1 ~gy1 then f id id')
  done
