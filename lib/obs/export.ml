let us_of_ns ns = Int64.to_float ns /. 1000.

let json_of_arg = function
  | Sink.Int i -> Json.Int i
  | Sink.Float f -> Json.Float f
  | Sink.Str s -> Json.Str s

(* Streamed through a Buffer rather than a Json.t tree: a traced
   S-series run emits tens of thousands of spans and the tree would
   double peak memory for no benefit. *)
let chrome_json ?(process_name = "mpl") events =
  let b = Buffer.create (4096 + (160 * List.length events)) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":%s}}"
       (Json.escape process_name));
  let tids = Hashtbl.create 8 in
  List.iter
    (fun (e : Sink.event) ->
      if not (Hashtbl.mem tids e.Sink.tid) then begin
        Hashtbl.replace tids e.Sink.tid ();
        Buffer.add_string b
          (Printf.sprintf
             ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"ts\":0,\"args\":{\"name\":\"thread-%d\"}}"
             e.Sink.tid e.Sink.tid)
      end)
    events;
  List.iter
    (fun (e : Sink.event) ->
      Buffer.add_string b
        (Printf.sprintf
           ",{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f"
           (Json.escape e.Sink.name) (Json.escape e.Sink.cat) e.Sink.tid
           (us_of_ns e.Sink.ts_ns) (us_of_ns e.Sink.dur_ns));
      (match e.Sink.args with
      | [] -> ()
      | args ->
        Buffer.add_string b ",\"args\":";
        Buffer.add_string b
          (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args))));
      Buffer.add_char b '}')
    events;
  Buffer.add_string b "]}";
  Buffer.contents b

let write_chrome ?process_name file events =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_json ?process_name events))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let metrics_json (s : Metrics.snapshot) =
  let hist (h : Metrics.hist_snapshot) =
    Json.Obj
      [
        ("count", Json.Int h.Metrics.count);
        ("sum", Json.Float h.Metrics.sum);
        ( "min",
          if h.Metrics.count = 0 then Json.Null else Json.Float h.Metrics.min_v );
        ( "max",
          if h.Metrics.count = 0 then Json.Null else Json.Float h.Metrics.max_v );
        ( "buckets",
          Json.List
            (List.map
               (fun (lo, hi, n) ->
                 Json.List [ Json.Float lo; Json.Float hi; Json.Int n ])
               h.Metrics.buckets) );
      ]
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.Metrics.counters) );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.Metrics.gauges) );
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hist h)) s.Metrics.histograms) );
    ]

let pp_metrics ppf (s : Metrics.snapshot) =
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%-32s %d@." k v)
    s.Metrics.counters;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%-32s %g@." k v)
    s.Metrics.gauges;
  List.iter
    (fun (k, (h : Metrics.hist_snapshot)) ->
      if h.Metrics.count = 0 then Format.fprintf ppf "%-32s (empty)@." k
      else
        Format.fprintf ppf "%-32s n=%d sum=%g mean=%g min=%g max=%g@." k
          h.Metrics.count h.Metrics.sum
          (h.Metrics.sum /. float_of_int h.Metrics.count)
          h.Metrics.min_v h.Metrics.max_v)
    s.Metrics.histograms

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (format 0.0.4) *)

let prom_sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

(* Integral values render without an exponent or trailing zeros so
   counters and bucket counts read naturally; everything else goes
   through %g (parseable back by the validator). *)
let prom_float v =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let prometheus ?(namespace = "mpl") (s : Metrics.snapshot) =
  let b = Buffer.create 4096 in
  let full name = namespace ^ "_" ^ prom_sanitize name in
  List.iter
    (fun (k, v) ->
      let n = full k in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
      Buffer.add_string b (Printf.sprintf "%s %d\n" n v))
    s.Metrics.counters;
  List.iter
    (fun (k, v) ->
      let n = full k in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
      Buffer.add_string b (Printf.sprintf "%s %s\n" n (prom_float v)))
    s.Metrics.gauges;
  List.iter
    (fun (k, (h : Metrics.hist_snapshot)) ->
      let n = full k in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      List.iter
        (fun (_, hi, c) ->
          cum := !cum + c;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (prom_float hi) !cum))
        h.Metrics.buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.Metrics.count);
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" n (prom_float h.Metrics.sum));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.Metrics.count))
    s.Metrics.histograms;
  Buffer.contents b

(* --- validator ---------------------------------------------------- *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let valid_metric_name s =
  String.length s > 0
  && is_name_start s.[0]
  && String.for_all is_name_char s

let valid_label_name s =
  String.length s > 0
  && (let c = s.[0] in
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_')
  && String.for_all (fun c -> is_name_char c && c <> ':') s

let parse_prom_value s =
  match String.lowercase_ascii s with
  | "+inf" | "inf" -> Some Float.infinity
  | "-inf" -> Some Float.neg_infinity
  | "nan" -> Some Float.nan
  | _ -> float_of_string_opt s

(* Parse a label set starting at index [i] (pointing at the opening
   brace). Returns [(labels, next_index)] or an error. Handles the
   backslash, quote and newline escapes of the exposition format. *)
let parse_labels line i =
  let n = String.length line in
  let labels = ref [] in
  let i = ref (i + 1) in
  let err msg = Error msg in
  let rec loop () =
    if !i >= n then err "unterminated label set"
    else if line.[!i] = '}' then begin
      incr i;
      Ok (List.rev !labels, !i)
    end
    else begin
      let start = !i in
      while !i < n && line.[!i] <> '=' && line.[!i] <> '}' do incr i done;
      if !i >= n || line.[!i] <> '=' then err "label without '='"
      else begin
        let lname = String.sub line start (!i - start) in
        if not (valid_label_name lname) then
          err (Printf.sprintf "bad label name %S" lname)
        else begin
          incr i;
          if !i >= n || line.[!i] <> '"' then err "label value not quoted"
          else begin
            incr i;
            let buf = Buffer.create 16 in
            let rec scan () =
              if !i >= n then err "unterminated label value"
              else
                match line.[!i] with
                | '"' ->
                  incr i;
                  labels := (lname, Buffer.contents buf) :: !labels;
                  if !i < n && line.[!i] = ',' then begin
                    incr i;
                    loop ()
                  end
                  else loop ()
                | '\\' ->
                  if !i + 1 >= n then err "dangling escape"
                  else begin
                    (match line.[!i + 1] with
                    | 'n' -> Buffer.add_char buf '\n'
                    | c -> Buffer.add_char buf c);
                    i := !i + 2;
                    scan ()
                  end
                | c ->
                  Buffer.add_char buf c;
                  incr i;
                  scan ()
            in
            scan ()
          end
        end
      end
    end
  in
  loop ()

type prom_sample = {
  ps_name : string;
  ps_labels : (string * string) list;
  ps_value : float;
}

let validate_prometheus text =
  let lines = String.split_on_char '\n' text in
  let families : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let samples = ref [] in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let parse_sample lineno line =
    (* name[{labels}] value [timestamp] *)
    let n = String.length line in
    let i = ref 0 in
    while !i < n && is_name_char line.[!i] do incr i done;
    let name = String.sub line 0 !i in
    if not (valid_metric_name name) then
      err lineno (Printf.sprintf "bad metric name in %S" line)
    else begin
      let labels_res =
        if !i < n && line.[!i] = '{' then parse_labels line !i
        else Ok ([], !i)
      in
      match labels_res with
      | Error m -> err lineno m
      | Ok (labels, j) ->
        let rest = String.trim (String.sub line j (n - j)) in
        let value_str =
          match String.index_opt rest ' ' with
          | Some k -> String.sub rest 0 k  (* drop optional timestamp *)
          | None -> rest
        in
        (match parse_prom_value value_str with
        | None -> err lineno (Printf.sprintf "bad sample value %S" value_str)
        | Some v ->
          samples := { ps_name = name; ps_labels = labels; ps_value = v }
                     :: !samples;
          Ok ())
    end
  in
  let parse_line lineno line =
    if String.length line = 0 then Ok ()
    else if line.[0] = '#' then begin
      match String.split_on_char ' ' line with
      | "#" :: "TYPE" :: name :: ty :: [] ->
        if not (valid_metric_name name) then
          err lineno (Printf.sprintf "bad family name %S" name)
        else if
          not (List.mem ty [ "counter"; "gauge"; "histogram"; "summary";
                             "untyped" ])
        then err lineno (Printf.sprintf "bad family type %S" ty)
        else if Hashtbl.mem families name then
          err lineno (Printf.sprintf "duplicate TYPE for %S" name)
        else begin
          Hashtbl.replace families name ty;
          Ok ()
        end
      | "#" :: "TYPE" :: _ -> err lineno "malformed TYPE line"
      | _ -> Ok () (* HELP lines and plain comments *)
    end
    else parse_sample lineno line
  in
  let rec scan lineno = function
    | [] -> Ok ()
    | line :: rest -> (
      match parse_line lineno line with
      | Ok () -> scan (lineno + 1) rest
      | Error _ as e -> e)
  in
  match scan 1 lines with
  | Error _ as e -> e
  | Ok () ->
    let samples = List.rev !samples in
    let family_of name =
      if Hashtbl.mem families name then Some name
      else
        let strip suffix =
          let ls = String.length suffix and ln = String.length name in
          if ln > ls && String.sub name (ln - ls) ls = suffix then begin
            let base = String.sub name 0 (ln - ls) in
            match Hashtbl.find_opt families base with
            | Some "histogram" | Some "summary" -> Some base
            | _ -> None
          end
          else None
        in
        (match strip "_bucket" with
        | Some b -> Some b
        | None -> (
          match strip "_sum" with
          | Some b -> Some b
          | None -> strip "_count"))
    in
    let orphan =
      List.find_opt (fun s -> family_of s.ps_name = None) samples
    in
    (match orphan with
    | Some s ->
      Error (Printf.sprintf "sample %S has no TYPE declaration" s.ps_name)
    | None ->
      (* Histogram families: buckets in le order, cumulative counts
         non-decreasing, closed by le="+Inf" whose value equals
         _count. *)
      let check_hist name =
        let buckets =
          List.filter (fun s -> s.ps_name = name ^ "_bucket") samples
        in
        let count =
          List.find_opt (fun s -> s.ps_name = name ^ "_count") samples
        in
        let rec walk last_le last_c = function
          | [] -> Ok last_c
          | s :: rest -> (
            match List.assoc_opt "le" s.ps_labels with
            | None -> Error (Printf.sprintf "%s_bucket without le label" name)
            | Some le_str -> (
              match parse_prom_value le_str with
              | None -> Error (Printf.sprintf "%s: bad le %S" name le_str)
              | Some le ->
                if le < last_le then
                  Error (Printf.sprintf "%s: le not non-decreasing" name)
                else if s.ps_value < last_c then
                  Error
                    (Printf.sprintf "%s: bucket counts not cumulative" name)
                else if rest = [] && le <> Float.infinity then
                  Error (Printf.sprintf "%s: last bucket is not +Inf" name)
                else walk le s.ps_value rest))
        in
        match buckets with
        | [] -> Error (Printf.sprintf "%s: histogram without buckets" name)
        | _ -> (
          match walk Float.neg_infinity Float.neg_infinity buckets with
          | Error _ as e -> e
          | Ok inf_count -> (
            match count with
            | None -> Error (Printf.sprintf "%s: missing _count" name)
            | Some c when c.ps_value <> inf_count ->
              Error (Printf.sprintf "%s: _count disagrees with +Inf bucket" name)
            | Some _ -> Ok ()))
      in
      let hist_names =
        Hashtbl.fold
          (fun name ty acc -> if ty = "histogram" then name :: acc else acc)
          families []
      in
      let rec check_all = function
        | [] -> Ok (List.length samples)
        | name :: rest -> (
          match check_hist name with
          | Ok () -> check_all rest
          | Error _ as e -> e)
      in
      check_all hist_names)

(* ------------------------------------------------------------------ *)
(* Phase rollup *)

let phase_totals events =
  let table : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (e : Sink.event) ->
      let count, total =
        match Hashtbl.find_opt table e.Sink.name with
        | Some cell -> cell
        | None ->
          let cell = (ref 0, ref 0.) in
          Hashtbl.replace table e.Sink.name cell;
          cell
      in
      incr count;
      total := !total +. (Int64.to_float e.Sink.dur_ns *. 1e-9))
    events;
  Hashtbl.fold (fun name (c, t) acc -> (name, (!c, !t)) :: acc) table []
  |> List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)

let pp_phases ppf events =
  List.iter
    (fun (name, (count, total_s)) ->
      Format.fprintf ppf "%-28s %8.3fs  x%d@." name total_s count)
    (phase_totals events)

(* ------------------------------------------------------------------ *)
(* Validation *)

(* The first key an event's [args] object repeats ([Json.Obj] keeps
   duplicates, so a doubly stamped argument is visible here). *)
let repeated_arg ev =
  match Json.member "args" ev with
  | Some (Json.Obj kvs) ->
    let rec go seen = function
      | [] -> None
      | (k, _) :: rest -> if List.mem k seen then Some k else go (k :: seen) rest
    in
    go [] kvs
  | _ -> None

let validate_chrome ?(required = []) s =
  match Json.parse s with
  | Error e -> Error e
  | Ok root -> (
    match Json.member "traceEvents" root with
    | None -> Error "missing traceEvents field"
    | Some (Json.List events) -> (
      let spans = ref 0 in
      let seen = Hashtbl.create 32 in
      let check_event ev =
        let field k = Json.member k ev in
        match (field "name", field "ph") with
        | Some (Json.Str name), Some (Json.Str ph) -> (
          match (repeated_arg ev, field "ts") with
          | Some k, _ -> Error (Printf.sprintf "event %S repeats arg %S" name k)
          | None, Some ts when Json.to_float ts <> None ->
            if String.equal ph "X" then begin
              match field "dur" with
              | Some d when Json.to_float d <> None ->
                incr spans;
                Hashtbl.replace seen name ();
                Ok ()
              | _ -> Error (Printf.sprintf "span %S lacks a numeric dur" name)
            end
            else Ok ()
          | None, _ -> Error (Printf.sprintf "event %S lacks a numeric ts" name))
        | _ -> Error "event lacks name/ph string fields"
      in
      let rec all = function
        | [] -> Ok ()
        | ev :: rest -> (
          match check_event ev with Ok () -> all rest | Error _ as e -> e)
      in
      match all events with
      | Error _ as e -> e
      | Ok () -> (
        match
          List.find_opt (fun name -> not (Hashtbl.mem seen name)) required
        with
        | Some missing -> Error (Printf.sprintf "missing span %S" missing)
        | None -> Ok !spans))
    | Some _ -> Error "traceEvents is not a list")
