let () =
  Alcotest.run "client-based-logging"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("sim", Test_sim.suite);
      ("storage", Test_storage.suite);
      ("wal", Test_wal.suite);
      ("buffer", Test_buffer.suite);
      ("lock", Test_lock.suite);
      ("aries", Test_aries.suite);
      ("node", Test_node.suite);
      ("cluster", Test_cluster.suite);
      ("recovery", Test_recovery.suite);
      ("recovery-edge", Test_recovery_edge.suite);
      ("workload", Test_workload.suite);
      ("scale", Test_scale.suite);
      ("fault", Test_fault.suite);
      ("recovery-faults", Test_recovery_faults.suite);
      ("elr", Test_elr.suite);
      ("properties", Test_props.suite);
      ("experiments", Test_experiments.suite);
      ("prelude", Test_prelude.suite);
      ("lint", Test_handlers.suite);
    ]
