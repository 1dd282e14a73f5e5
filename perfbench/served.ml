(* served-mix: one closed-loop client connection against a child
   [mpld serve -j 1] on a Unix socket. *)

module W = Workloads
module D = Mpl.Decomposer
module P = Mpl_server.Proto
module Layout = Mpl_layout.Layout
module Layout_io = Mpl_layout.Layout_io

let mpld () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/mpld.exe"

let run_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* The child server *)

type server = {
  pid : int;
  sock : string;
  fd : Unix.file_descr;
  ic : in_channel;
  mutable stopped : bool;
}

let started = ref 0

let rec wait_exit pid tries =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when tries > 0 ->
    Unix.sleepf 0.01;
    wait_exit pid (tries - 1)
  | 0, _ ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let send fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let stop s =
  if not s.stopped then begin
    s.stopped <- true;
    (try send s.fd "QUIT\n" with Unix.Unix_error _ -> ());
    (try ignore (input_line s.ic) with End_of_file | Sys_error _ -> ());
    close_in_noerr s.ic;
    wait_exit s.pid 500;
    (try Sys.remove s.sock with Sys_error _ -> ());
    try Unix.rmdir run_dir with Unix.Unix_error _ -> ()
  end

let start ~traced =
  W.refuse_unless (Guard.jobs_ok 1);
  let exe = mpld () in
  if not (Sys.file_exists exe) then failwith ("server binary missing: " ^ exe);
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  incr started;
  let sock =
    Printf.sprintf "%s/s-%d-%d.sock" run_dir (Unix.getpid ()) !started
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--socket"; sock; "-j"; "1";
        (* The ring keeps per-request traces: on only for traced runs. *)
        "--ring"; (if traced then "4" else "0");
        (* The connection idles through the end-of-run checks. *)
        "--read-timeout-ms"; "600000";
      |]
      null null null
  in
  Unix.close null;
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "mpld serve exited during start-up");
      Unix.sleepf 0.005;
      connect (tries - 1)
  in
  match connect 2000 with
  | fd ->
    let s = { pid; sock; fd; ic = Unix.in_channel_of_descr fd; stopped = false } in
    at_exit (fun () -> stop s);
    s
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    wait_exit pid 0;
    raise e

(* ------------------------------------------------------------------ *)
(* Requests *)

type reply = {
  colors : int array;
  scaled : int;
  conflicts : int;
  stitches : int;
  rid : int;
  ack_s : float;
  first_piece_s : float option;
  e2e_s : float;
  bytes_in : int;  (** request bytes the server read *)
  bytes_out : int;  (** reply bytes the server wrote *)
}

(* Send one request and read its reply stream up to DONE; client-side
   times are from the send. *)
let call s header body =
  let t0 = Sysinfo.wall_s () in
  send s.fd (header ^ body);
  let ack = ref 0. and first = ref None and rid = ref (-1) in
  let cost = ref None and bytes = ref 0 in
  let rec loop () =
    let line = input_line s.ic in
    bytes := !bytes + String.length line + 1;
    match P.parse_reply line with
    | Ok (P.Ack r) ->
      ack := Sysinfo.wall_s () -. t0;
      rid := Option.value ~default:(-1) r;
      loop ()
    | Ok (P.Piece _) ->
      if !first = None then first := Some (Sysinfo.wall_s () -. t0);
      loop ()
    | Ok (P.Cost c) ->
      cost := Some c;
      loop ()
    | Ok (P.Done colors) -> (
      let e2e = Sysinfo.wall_s () -. t0 in
      match !cost with
      | None -> Error "no COST line before DONE"
      | Some c ->
        Ok
          {
            colors;
            scaled = c.P.scaled;
            conflicts = c.P.conflicts;
            stitches = c.P.stitches;
            rid = !rid;
            ack_s = !ack;
            first_piece_s = !first;
            e2e_s = e2e;
            bytes_in = String.length header + String.length body;
            bytes_out = !bytes;
          })
    | Ok (P.Busy (i, l)) -> Error (Printf.sprintf "BUSY %d/%d" i l)
    | Ok (P.Err { code; msg; _ }) -> Error (Printf.sprintf "ERR %s %s" code msg)
    | Ok (P.Timeout _) -> Error "TIMEOUT"
    | Ok (P.Cancelled why) -> Error ("CANCELLED " ^ why)
    | Ok _ -> loop ()
    | Error msg -> Error ("bad reply: " ^ msg)
  in
  try loop () with End_of_file -> Error "server closed the connection"

let metrics s =
  send s.fd "METRICS\n";
  match P.parse_reply (input_line s.ic) with
  | Ok (P.Json j) -> (
    match Mpl_obs.Json.parse j with
    | Ok json -> Layers.of_metrics_json json
    | Error msg -> failwith ("METRICS: " ^ msg))
  | _ -> failwith "METRICS: unexpected reply"

(* One request's server-side spans, from the admin plane. The handler
   thread of that extra connection is waited out so its CPU time does
   not vanish from the next op's reading. *)
let request_spans s rid =
  let before = Sysinfo.thread_count s.pid in
  let c = Mpl_server.Client.connect_unix s.sock in
  let r = Mpl_server.Client.http c (Printf.sprintf "/trace?id=%d" rid) in
  Mpl_server.Client.close c;
  let rec settle n =
    if n > 0 && Sysinfo.thread_count s.pid > before then begin
      Unix.sleepf 0.002;
      settle (n - 1)
    end
  in
  settle 500;
  match r with
  | Ok (200, body) -> (
    match Mpl_obs.Json.parse body with
    | Ok json -> Layers.of_chrome json
    | Error _ -> [])
  | _ -> []

(* ------------------------------------------------------------------ *)
(* The mix *)

type kind =
  | Circuit of string  (** repeated S-circuit, cache-served after its first run *)
  | Windowed of string  (** synth layout sharded into windows *)
  | Eco of string  (** edit script against the captured base session *)

(* One circuit repeated, so the heaviest third of the requests is one
   kind and the tail percentile falls inside it. *)
let circuit = "S38417"
let circuit_repeats = 4
let windowed_layouts = 4
let windowed_features = 6_000
let windows = 4
let eco_scripts = 4
let eco_features = 8_000
let eco_edits = 40

let request = { P.default_request with P.k = 4; algo = D.Linear; cache = true }

let shuffle seed a =
  let rng = Mpl_util.Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Mpl_util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The cross-request cache, the sharded path and server-side ECO
   sessions, through the protocol layers. *)
let served_mix =
  {
    W.name = "served-mix";
    setup =
      (fun ~seed ~traced ->
        W.refuse_unless (Guard.request request);
        W.refuse_unless (Guard.request { request with P.windows });
        let one_shot_params = W.checked D.Linear (W.params ~k:4 ~cache:true) in
        let base =
          Inputs.synth ~seed:(Inputs.derive seed 0) ~features:eco_features
            ~gadgets:0
        in
        let base_text = Layout_io.to_string base in
        let scripts =
          List.init eco_scripts (fun i ->
              Mpl.Eco.edits_to_string
                (Mpl.Eco.generate ~seed:(Inputs.derive seed (100 + i))
                   ~count:eco_edits base))
        in
        let ops =
          List.concat
            [
              (let text =
                 Layout_io.to_string
                   (Inputs.circuit
                      ~seed:(Inputs.derive seed (Hashtbl.hash circuit))
                      circuit)
               in
               List.init circuit_repeats (fun _ -> Circuit text));
              List.init windowed_layouts (fun i ->
                  Windowed
                    (Layout_io.to_string
                       (Inputs.synth ~seed:(Inputs.derive seed (200 + i))
                          ~features:windowed_features ~gadgets:0)));
              List.map (fun s -> Eco s) scripts;
            ]
          |> Array.of_list |> shuffle (Inputs.derive seed 1)
        in
        let inputs =
          Inputs.digest
            (base_text
            :: Array.to_list
                 (Array.map
                    (function Circuit t | Windowed t | Eco t -> t)
                    ops))
        in
        let srv = start ~traced in
        (* The base session every REDECOMPOSE edits. *)
        let hash = Mpl.Eco.hash_layout base in
        (match
           call srv
             (P.encode_request request ~body_len:(String.length base_text))
             base_text
         with
        | Ok _ -> ()
        | Error msg -> failwith ("base DECOMPOSE: " ^ msg));
        (* The one-shot reference for a request: a whole-graph, in-process
           decompose of the same layout (for REDECOMPOSE, of the edited
           layout). Windowed requests thus also check window sharding
           against the whole graph. *)
        let reference = function
          | Circuit text | Windowed text -> Layout_io.of_string text
          | Eco script -> (
            match Mpl.Eco.parse_edits script with
            | Error msg -> failwith msg
            | Ok edits -> (
              match Mpl.Eco.apply base edits with
              | Ok (l, _) -> l
              | Error msg -> failwith msg))
        in
        let check kind (r : reply) =
          let layout = reference kind in
          let min_s = Layout.quadruple_min_s layout.Layout.tech in
          let g, one =
            D.decompose ~params:one_shot_params ~min_s D.Linear layout
          in
          let cost =
            {
              Mpl.Coloring.conflicts = r.conflicts;
              stitches = r.stitches;
              scaled = r.scaled;
            }
          in
          match W.check_coloring ~k:4 g r.colors cost with
          | Some _ as e -> e
          | None ->
            if W.color_digest one.D.colors <> W.color_digest r.colors then
              Some "served coloring differs from the one-shot coloring"
            else None
        in
        let firsts = ref [] in
        let op (timer : W.timer) ~first ~traced i =
          let kind = ops.(i) in
          let header, body =
            match kind with
            | Circuit t ->
              (P.encode_request request ~body_len:(String.length t), t)
            | Windowed t ->
              ( P.encode_request { request with P.windows }
                  ~body_len:(String.length t),
                t )
            | Eco s ->
              (P.encode_redecompose request ~hash ~body_len:(String.length s), s)
          in
          let m0 = if traced then Some (metrics srv) else None in
          match timer.W.time (fun () -> call srv header body) with
          | Error msg ->
            { W.scaled = 0; digest = ""; error = Some msg; layers = [] }
          | Ok r ->
            let layers =
              match m0 with
              | None -> []
              | Some m0 ->
                let m1 = metrics srv in
                (* The parse and edit application every request pays
                   server-side, timed on the same bytes in-process. *)
                let local =
                  match kind with
                  | Circuit t | Windowed t ->
                    let _, s = W.time_s (fun () -> Layout_io.of_string t) in
                    [ ("layout.parse_s", s) ]
                  | Eco script -> (
                    match Mpl.Eco.parse_edits script with
                    | Ok edits ->
                      let _, s = W.time_s (fun () -> Mpl.Eco.apply base edits) in
                      [ ("eco.apply_s", s) ]
                    | Error _ -> [])
                in
                [
                  ("server.ack_s", r.ack_s);
                  ("server.e2e_s", r.e2e_s);
                  ("proto.bytes_in", float_of_int r.bytes_in);
                  ("proto.bytes_out", float_of_int r.bytes_out);
                ]
                @ (match r.first_piece_s with
                  | Some f -> [ ("server.first_piece_s", f) ]
                  | None -> [])
                @ local
                @ Layers.span_readings (request_spans srv r.rid)
                @ Layers.count_readings (Layers.delta m0 m1)
            in
            if first then firsts := (i, r) :: !firsts;
            {
              W.scaled = r.scaled;
              digest = W.color_digest r.colors;
              error = None;
              layers;
            }
        in
        (* Checked after the run: the in-process references would
           otherwise count towards this process's peak memory. *)
        let finish () =
          List.filter_map
            (fun (i, r) -> Option.map (fun e -> (i, e)) (check ops.(i) r))
            (List.rev !firsts)
        in
        {
          W.inputs;
          pass = Array.length ops;
          op;
          extra_cpu = (fun () -> Sysinfo.process_cpu_s srv.pid);
          extra_rss_mb =
            (fun () -> Sysinfo.peak_rss_mb (string_of_int srv.pid));
          finish;
          stop = (fun () -> stop srv);
        });
  }
