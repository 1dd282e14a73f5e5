module Rect = Mpl_geometry.Rect
module Polygon = Mpl_geometry.Polygon
module Layout = Mpl_layout.Layout
module Layout_io = Mpl_layout.Layout_io
module Rng = Mpl_util.Rng

type edit =
  | Add of Polygon.t
  | Remove of int
  | Move of { index : int; dx : int; dy : int }

(* ------------------------------------------------------------------ *)
(* Edit-script text format                                            *)
(* ------------------------------------------------------------------ *)

let edits_to_string edits =
  let b = Buffer.create 256 in
  List.iter
    (fun e ->
      match e with
      | Remove i -> Buffer.add_string b (Printf.sprintf "REMOVE %d\n" i)
      | Move { index; dx; dy } ->
          Buffer.add_string b (Printf.sprintf "MOVE %d %d %d\n" index dx dy)
      | Add p ->
          let rects = Polygon.rects p in
          Buffer.add_string b (Printf.sprintf "ADD %d" (List.length rects));
          List.iter
            (fun r ->
              Buffer.add_string b
                (Printf.sprintf " %d %d %d %d" r.Rect.x0 r.Rect.y0 r.Rect.x1
                   r.Rect.y1))
            rects;
          Buffer.add_char b '\n')
    edits;
  Buffer.contents b

let parse_edits text =
  let err lineno msg =
    Error (Printf.sprintf "edit script line %d: %s" lineno msg)
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line =
          match String.index_opt line '\r' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (lineno + 1) acc rest
        else
          let toks =
            String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
          in
          let int s =
            match int_of_string_opt s with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "bad integer %S" s)
          in
          let ( let* ) r f =
            match r with Ok v -> f v | Error m -> err lineno m
          in
          match toks with
          | [ "REMOVE"; i ] ->
              let* i = int i in
              go (lineno + 1) (Remove i :: acc) rest
          | [ "MOVE"; i; dx; dy ] ->
              let* i = int i in
              let* dx = int dx in
              let* dy = int dy in
              go (lineno + 1) (Move { index = i; dx; dy } :: acc) rest
          | "ADD" :: n :: coords -> (
              let* n = int n in
              if n <= 0 then err lineno "ADD needs at least one rect"
              else if List.length coords <> 4 * n then
                err lineno
                  (Printf.sprintf "ADD %d expects %d coordinates" n (4 * n))
              else
                let* vals =
                  List.fold_left
                    (fun acc s ->
                      match acc with
                      | Error _ -> acc
                      | Ok vs -> (
                          match int_of_string_opt s with
                          | Some v -> Ok (v :: vs)
                          | None -> Error (Printf.sprintf "bad integer %S" s)))
                    (Ok []) coords
                in
                let vals = Array.of_list (List.rev vals) in
                match
                  let rects = ref [] in
                  for j = n - 1 downto 0 do
                    rects :=
                      Rect.make ~x0:vals.((4 * j) + 0) ~y0:vals.((4 * j) + 1)
                        ~x1:vals.((4 * j) + 2) ~y1:vals.((4 * j) + 3)
                      :: !rects
                  done;
                  Polygon.of_rects !rects
                with
                | p -> go (lineno + 1) (Add p :: acc) rest
                | exception Invalid_argument m -> err lineno m)
          | _ -> err lineno (Printf.sprintf "unrecognized edit %S" line))
  in
  try go 1 [] lines with Failure m -> Error (Printf.sprintf "edit script: %s" m)

(* ------------------------------------------------------------------ *)
(* Applying edits                                                     *)
(* ------------------------------------------------------------------ *)

let apply (base : Layout.t) edits =
  let nf = Array.length base.Layout.features in
  let slot = Array.make nf `Keep in
  let added = ref [] and n_added = ref 0 in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let claim i what =
    if i < 0 || i >= nf then
      fail (Printf.sprintf "%s %d: index out of range (0..%d)" what i (nf - 1))
    else if slot.(i) <> `Keep then
      fail (Printf.sprintf "%s %d: feature edited twice" what i)
  in
  List.iter
    (fun e ->
      match e with
      | Remove i ->
          claim i "REMOVE";
          if !error = None then slot.(i) <- `Removed
      | Move { index = i; dx; dy } ->
          claim i "MOVE";
          if !error = None then (
            let moved =
              Polygon.rects base.Layout.features.(i)
              |> List.map (fun r -> Rect.translate r ~dx ~dy)
              |> Polygon.of_rects
            in
            slot.(i) <- `Moved moved)
      | Add p ->
          incr n_added;
          added := p :: !added)
    edits;
  match !error with
  | Some msg -> Error msg
  | None ->
      let new_of_old = Array.make nf None in
      let out = ref [] and next = ref 0 in
      for i = 0 to nf - 1 do
        match slot.(i) with
        | `Removed -> ()
        | `Keep ->
            new_of_old.(i) <- Some !next;
            incr next;
            out := base.Layout.features.(i) :: !out
        | `Moved p ->
            new_of_old.(i) <- Some !next;
            incr next;
            out := p :: !out
      done;
      List.iter (fun p -> out := p :: !out) (List.rev !added);
      let features = Array.of_list (List.rev !out) in
      let layout =
        Layout.make ~name:base.Layout.name base.Layout.tech
          (Array.to_list features)
      in
      Ok (layout, new_of_old)

let dirty_rects (base : Layout.t) edits =
  let nf = Array.length base.Layout.features in
  let acc = ref [] in
  let push_poly p = acc := List.rev_append (Polygon.rects p) !acc in
  List.iter
    (fun e ->
      match e with
      | Add p -> push_poly p
      | Remove i -> if i >= 0 && i < nf then push_poly base.Layout.features.(i)
      | Move { index = i; dx; dy } ->
          if i >= 0 && i < nf then (
            push_poly base.Layout.features.(i);
            List.iter
              (fun r -> acc := Rect.translate r ~dx ~dy :: !acc)
              (Polygon.rects base.Layout.features.(i))))
    edits;
  !acc

(* ------------------------------------------------------------------ *)
(* Deterministic edit generation                                      *)
(* ------------------------------------------------------------------ *)

let generate ~seed ~count (base : Layout.t) =
  let rng = Rng.create (0x65636f + (seed * 0x9e3779b)) in
  let nf = Array.length base.Layout.features in
  let used = Hashtbl.create (2 * count) in
  let pitch = max 1 base.Layout.tech.Layout.half_pitch in
  let wm = max 1 base.Layout.tech.Layout.min_width in
  (* An ECO reworks one region of the die, not uniformly sprinkled
     features: confine every edit to the smallest square window around
     a seed-chosen anchor that holds ~8x the requested edit count, so
     the dirty region scales with the edit, not with the die. *)
  let cand =
    if nf = 0 then [||]
    else begin
      let cx = Array.make nf 0 and cy = Array.make nf 0 in
      Array.iteri
        (fun i p ->
          let bb = Polygon.bbox p in
          cx.(i) <- (bb.Rect.x0 + bb.Rect.x1) / 2;
          cy.(i) <- (bb.Rect.y0 + bb.Rect.y1) / 2)
        base.Layout.features;
      let a = Rng.int rng nf in
      let ax = cx.(a) and ay = cy.(a) in
      let want = min nf (max 16 (count * 4)) in
      let inside r i = abs (cx.(i) - ax) <= r && abs (cy.(i) - ay) <= r in
      let n_inside r =
        let n = ref 0 in
        for i = 0 to nf - 1 do
          if inside r i then incr n
        done;
        !n
      in
      let r = ref (16 * pitch) in
      while n_inside !r < want && !r < 1 lsl 28 do
        r := !r * 2
      done;
      let out = ref [] in
      for i = nf - 1 downto 0 do
        if inside !r i then out := i :: !out
      done;
      Array.of_list !out
    end
  in
  let ncand = Array.length cand in
  (* pick an unedited window feature; None once (almost) all are taken *)
  let pick () =
    if ncand = 0 || Hashtbl.length used >= ncand then None
    else
      let rec try_ n =
        if n = 0 then None
        else
          let i = cand.(Rng.int rng ncand) in
          if Hashtbl.mem used i then try_ (n - 1) else Some i
      in
      try_ 64
  in
  let add_near () =
    let bx, by =
      if ncand = 0 then (0, 0)
      else
        let anchor = cand.(Rng.int rng ncand) in
        let bb = Polygon.bbox base.Layout.features.(anchor) in
        (bb.Rect.x1 + (pitch * (2 + Rng.int rng 6)), bb.Rect.y0)
    in
    let len = wm * (2 + Rng.int rng 6) in
    let horiz = Rng.bool rng in
    let w, h = if horiz then (len, wm) else (wm, len) in
    Add (Polygon.of_rect (Rect.make ~x0:bx ~y0:by ~x1:(bx + w) ~y1:(by + h)))
  in
  let rec edits_for n acc =
    if n = 0 then List.rev acc
    else
      let roll = Rng.int rng 10 in
      let e =
        if roll < 5 then
          match pick () with
          | None -> add_near ()
          | Some i ->
              Hashtbl.replace used i ();
              let delta () =
                let d = Rng.range rng (-3) 3 in
                if d = 0 then pitch else d * pitch
              in
              Move { index = i; dx = delta (); dy = delta () }
        else if roll < 8 then add_near ()
        else
          match pick () with
          | None -> add_near ()
          | Some i ->
              Hashtbl.replace used i ();
              Remove i
      in
      edits_for (n - 1) (e :: acc)
  in
  edits_for (max 0 count) []

(* ------------------------------------------------------------------ *)
(* Sessions                                                           *)
(* ------------------------------------------------------------------ *)

type comp = {
  features : int array;
  colors : int array;
  conflicts : int;
  stitches : int;
  scaled : int;
}

type session = {
  layout : Layout.t;
  min_s : int;
  salt : string;
  seg_counts : int array;
  comps : comp array;
}

let hash_text text = Digest.to_hex (Digest.string text)
let hash_layout layout = hash_text (Layout_io.to_string layout)

exception Bad_file of string

let magic = "mpld-eco-session 1"

let ints_line tag arr =
  let b = Buffer.create (16 + (Array.length arr * 4)) in
  Buffer.add_string b tag;
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int (Array.length arr));
  Array.iter
    (fun v ->
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int v))
    arr;
  Buffer.add_char b '\n';
  Buffer.contents b

let body_of_session s =
  let layout_text = Layout_io.to_string s.layout in
  let b = Buffer.create (String.length layout_text + 4096) in
  Buffer.add_string b (magic ^ "\n");
  Buffer.add_string b (Printf.sprintf "hash %s\n" (hash_text layout_text));
  Buffer.add_string b (Printf.sprintf "mins %d\n" s.min_s);
  Buffer.add_string b (Printf.sprintf "salt %s\n" s.salt);
  Buffer.add_string b (ints_line "segs" s.seg_counts);
  Buffer.add_string b
    (Printf.sprintf "layout %d\n" (String.length layout_text));
  Buffer.add_string b layout_text;
  Buffer.add_char b '\n';
  Buffer.add_string b (Printf.sprintf "comps %d\n" (Array.length s.comps));
  Array.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "C %d %d %d\n" c.conflicts c.stitches c.scaled);
      Buffer.add_string b (ints_line "F" c.features);
      Buffer.add_string b (ints_line "K" c.colors))
    s.comps;
  Buffer.contents b

let save s path =
  let body = body_of_session s in
  let sum = hash_text body in
  (* Atomic publish: write to a sibling temp file, then rename. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc body;
      output_string oc (Printf.sprintf "sum %s\n" sum);
      flush oc);
  Sys.rename tmp path

(* Cursor-based reader over the whole file: the layout block is raw
   length-prefixed bytes, so a plain line loop cannot parse it. *)
type cursor = { buf : string; mutable pos : int }

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_file m)) fmt

let read_line cur =
  if cur.pos >= String.length cur.buf then bad "truncated file"
  else
    match String.index_from_opt cur.buf cur.pos '\n' with
    | None ->
        let l = String.sub cur.buf cur.pos (String.length cur.buf - cur.pos) in
        cur.pos <- String.length cur.buf;
        l
    | Some i ->
        let l = String.sub cur.buf cur.pos (i - cur.pos) in
        cur.pos <- i + 1;
        l

let read_raw cur n =
  if n < 0 || cur.pos + n > String.length cur.buf then bad "truncated layout block"
  else begin
    let s = String.sub cur.buf cur.pos n in
    cur.pos <- cur.pos + n;
    s
  end

let expect_tag tag line =
  let tl = String.length tag in
  if
    String.length line > tl
    && String.sub line 0 tl = tag
    && line.[tl] = ' '
  then String.sub line (tl + 1) (String.length line - tl - 1)
  else bad "expected %S line, got %S" tag line

let parse_int what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> bad "bad %s %S" what s

let parse_ints tag line =
  let rest = expect_tag tag line in
  let toks =
    String.split_on_char ' ' rest |> List.filter (fun s -> s <> "")
  in
  match toks with
  | [] -> bad "empty %S line" tag
  | n :: vals ->
      let n = parse_int "count" n in
      if List.length vals <> n then bad "%S line length mismatch" tag
      else Array.of_list (List.map (parse_int "value") vals)

let load path =
  let ic = open_in_bin path in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* split off the trailing "sum <hex>\n" line and verify the body *)
  let sum_off =
    let no_nl =
      if String.length raw > 0 && raw.[String.length raw - 1] = '\n' then
        String.sub raw 0 (String.length raw - 1)
      else raw
    in
    match String.rindex_opt no_nl '\n' with
    | Some i -> i + 1
    | None -> bad "missing checksum line"
  in
  let body = String.sub raw 0 sum_off in
  let sum_line =
    String.trim (String.sub raw sum_off (String.length raw - sum_off))
  in
  let sum = expect_tag "sum" sum_line in
  if hash_text body <> sum then bad "checksum mismatch";
  let cur = { buf = body; pos = 0 } in
  if read_line cur <> magic then bad "not an mpld eco session file";
  let layout_hash = expect_tag "hash" (read_line cur) in
  let min_s = parse_int "min_s" (expect_tag "mins" (read_line cur)) in
  let salt = expect_tag "salt" (read_line cur) in
  let seg_counts = parse_ints "segs" (read_line cur) in
  let nbytes =
    parse_int "layout length" (expect_tag "layout" (read_line cur))
  in
  let layout_text = read_raw cur nbytes in
  if read_line cur <> "" then bad "layout block not newline-terminated";
  if hash_text layout_text <> layout_hash then bad "layout hash mismatch";
  let layout =
    try Layout_io.of_string layout_text
    with Layout_io.Parse_error { line; msg } ->
      bad "session layout line %d: %s" line msg
  in
  let ncomps = parse_int "comps" (expect_tag "comps" (read_line cur)) in
  if ncomps < 0 then bad "negative component count";
  let nf = Array.length seg_counts in
  let comps =
    Array.init ncomps (fun _ ->
        let hdr = expect_tag "C" (read_line cur) in
        let conflicts, stitches, scaled =
          match
            String.split_on_char ' ' hdr |> List.filter (fun s -> s <> "")
          with
          | [ a; b; c ] ->
              ( parse_int "conflicts" a,
                parse_int "stitches" b,
                parse_int "scaled" c )
          | _ -> bad "bad component header %S" hdr
        in
        let features = parse_ints "F" (read_line cur) in
        let colors = parse_ints "K" (read_line cur) in
        let segs =
          Array.fold_left
            (fun acc f ->
              if f < 0 || f >= nf then bad "feature index %d out of range" f
              else acc + seg_counts.(f))
            0 features
        in
        if Array.length colors <> segs then
          bad "component colors/segments mismatch";
        { features; colors; conflicts; stitches; scaled })
  in
  { layout; min_s; salt; seg_counts; comps }
