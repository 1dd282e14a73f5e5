let all =
  [
    Workloads.synth_cold;
    Workloads.paper_sdp;
    Workloads.eco_chain;
    Served.served_mix;
  ]
