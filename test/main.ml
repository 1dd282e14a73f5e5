let () =
  Alcotest.run "mpl"
    [
      ("util", Test_util.suite);
      ("geometry", Test_geometry.suite);
      ("graph", Test_graph.suite);
      ("ilp", Test_ilp.suite);
      ("numeric", Test_numeric.suite);
      ("layout", Test_layout.suite);
      ("core", Test_core.suite);
      ("engine", Test_engine.suite);
      ("server", Test_server.suite);
      ("fault", Test_fault.suite);
      ("obs", Test_obs.suite);
      ("extensions", Test_extensions.suite);
      ("shard", Test_shard.suite);
      ("eco", Test_eco.suite);
      ("paper", Test_paper.suite);
      ("golden", Test_golden.suite);
    ]
