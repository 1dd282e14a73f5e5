(* One benchmark run: set up three times, then repeat the workload's
   pass until the time is up, timing every op and checking its output. *)

module W = Workloads

let setups = 3

type sample = {
  pass : int;
  cpu : float;
  wall : float;
  traced : bool;
  gc : (string * float) list;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  [
    ("gc.minor_words", b.Gc.minor_words -. a.Gc.minor_words);
    ("gc.major_words", b.Gc.major_words -. a.Gc.major_words);
    ( "gc.major_collections",
      float_of_int (b.Gc.major_collections - a.Gc.major_collections) );
  ]

let run (w : W.t) ~seed ~seconds ~traced =
  let probes = ref [ Sysinfo.cpu_probe_s () ] in
  (* Set up several times, keeping the last instance; the inputs must
     come out identical each time. *)
  let setup () =
    let t0 = Sysinfo.wall_s () in
    let inst = w.W.setup ~seed ~traced in
    (Sysinfo.wall_s () -. t0, inst)
  in
  let earlier =
    List.init (setups - 1) (fun _ ->
        let t, inst = setup () in
        inst.W.stop ();
        (t, inst.W.inputs))
  in
  let t_last, inst = setup () in
  let setup_times = t_last :: List.map fst earlier in
  let problems = ref [] in
  let problem msg = problems := msg :: !problems in
  if List.exists (fun (_, d) -> d <> inst.W.inputs) earlier then
    problem "the same seed generated different inputs";
  Fun.protect ~finally:inst.W.stop @@ fun () ->
  let samples = ref [] and layers = ref [] in
  let attempted = ref 0 and failed = Hashtbl.create 8 in
  let first_digest = Array.make inst.W.pass "" in
  let pass_cost = Hashtbl.create 8 in
  let time_op ~pass ~traced_op =
    {
      W.time =
        (fun f ->
          Gc.full_major ();
          let g0 = Gc.quick_stat () in
          let x0 = inst.W.extra_cpu () in
          let c0 = Sysinfo.cpu_s () and w0 = Sysinfo.wall_s () in
          let r = f () in
          let w1 = Sysinfo.wall_s () and c1 = Sysinfo.cpu_s () in
          let x1 = inst.W.extra_cpu () in
          let g1 = Gc.quick_stat () in
          samples :=
            {
              pass;
              cpu = c1 -. c0 +. (x1 -. x0);
              wall = w1 -. w0;
              traced = traced_op;
              gc =
                gc_delta g0 g1
                @ [ ("server.cpu_s", x1 -. x0); ("server.wall_s", w1 -. w0) ];
            }
            :: !samples;
          r);
    }
  in
  (* A traced run alternates untraced and traced passes, so it can
     report its own overhead. *)
  let min_passes = if traced then 4 else 3 in
  let t_start = Sysinfo.wall_s () in
  let j = ref 0 in
  while
    Sysinfo.wall_s () -. t_start < seconds || !j < min_passes * inst.W.pass
  do
    let pass = !j / inst.W.pass and i = !j mod inst.W.pass in
    if pass = 2 && i = 0 then probes := Sysinfo.cpu_probe_s () :: !probes;
    let traced_op = traced && pass mod 2 = 1 in
    let o =
      inst.W.op (time_op ~pass ~traced_op) ~first:(pass = 0) ~traced:traced_op
        i
    in
    incr attempted;
    let error =
      match o.W.error with
      | Some _ as e -> e
      | None ->
        if pass = 0 then begin
          first_digest.(i) <- o.W.digest;
          None
        end
        else if first_digest.(i) <> o.W.digest then
          Some "coloring differs from pass 0"
        else None
    in
    (match error with
    | Some msg ->
      if Hashtbl.length failed < 5 then
        problem (Printf.sprintf "op %d: %s" i msg);
      Hashtbl.replace failed !j ()
    | None -> ());
    Hashtbl.replace pass_cost pass
      (o.W.scaled + Option.value ~default:0 (Hashtbl.find_opt pass_cost pass));
    if traced_op then layers := o.W.layers :: !layers;
    incr j
  done;
  (* Read before the end-of-run checks, which build graphs of their
     own. *)
  let peak_rss = Sysinfo.peak_rss_mb "self" +. inst.W.extra_rss_mb () in
  (* A check failing at the end of the run fails every run of that op. *)
  List.iter
    (fun (i, msg) ->
      problem (Printf.sprintf "op %d: %s" i msg);
      for k = 0 to !j - 1 do
        if k mod inst.W.pass = i then Hashtbl.replace failed k ()
      done)
    (inst.W.finish ());
  probes := Sysinfo.cpu_probe_s () :: !probes;
  let complete = !j / inst.W.pass in
  let samples = List.rev !samples in
  let costs = List.init complete (fun p -> Hashtbl.find pass_cost p) in
  if List.exists (( <> ) (List.hd costs)) costs then
    problem "quality cost differs between passes";
  let pass_cpu ~traced_pass =
    Array.of_list
      (List.filter_map
         (fun p ->
           let ss =
             List.filter
               (fun s -> s.pass = p && s.traced = traced_pass)
               samples
           in
           if ss = [] then None
           else Some (List.fold_left (fun a s -> a +. s.cpu) 0. ss))
         (List.init complete Fun.id))
  in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let arr f l = Array.of_list (List.map f l) in
  let cpu = arr (fun s -> s.cpu) untraced and wall = arr (fun s -> s.wall) untraced in
  let tail a =
    match Stats.tail a with
    | Some t -> t
    | None -> failwith "fewer than 11 untraced ops: no tail"
  in
  let probe = Stats.median (Array.of_list !probes) in
  let metrics =
    if not traced then
      let cpu_tail = tail cpu and wall_tail = tail wall in
      [
        ("setup_s", "s", Stats.median (Array.of_list setup_times));
        ("cpu_s", "s", Stats.median (pass_cpu ~traced_pass:false));
        ("cpu_p50_s", "s", Stats.median cpu);
        ("cpu_tail_s", "s", cpu_tail.Stats.value);
        ( "ops_per_cpu_s",
          "1/s",
          float_of_int (Array.length cpu) /. Array.fold_left ( +. ) 0. cpu );
        ("wall_p50_s", "s", Stats.median wall);
        ("wall_tail_s", "s", wall_tail.Stats.value);
        ("peak_rss_mb", "MB", peak_rss);
        ("quality_cost", "cost", float_of_int (List.hd costs) /. 1000.);
      ]
    else
      let overhead =
        Stats.median (pass_cpu ~traced_pass:true)
        /. Stats.median (pass_cpu ~traced_pass:false)
      in
      Layers.summarize
        ~extra:[ ("env.cpu_probe_s", probe); ("trace.overhead_ratio", overhead) ]
        (List.map (fun s -> s.gc) untraced @ !layers)
  in
  let notes =
    [
      Printf.sprintf
        "%s seed=%d: %d ops (%d untraced) in %d complete passes of %d; %s; \
         env.cpu_probe_s=%.4f"
        w.W.name seed !attempted (Array.length cpu) complete inst.W.pass
        (match Stats.tail cpu with
        | Some t -> Printf.sprintf "tail = p%d of %d samples" t.Stats.pct t.Stats.samples
        | None -> "no tail")
        probe;
    ]
    @ List.rev_map (fun m -> "check failed: " ^ m) !problems
  in
  {
    correct = !problems = [] && Hashtbl.length failed = 0;
    attempted = !attempted;
    failed = Hashtbl.length failed;
    metrics;
    notes;
  }

let to_json r =
  let module J = Mpl_obs.Json in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool r.correct);
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
                r.metrics) );
       ])
