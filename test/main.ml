let () =
  Alcotest.run "nvtraverse"
    [ ("harris_list", Test_harris.suite);
      ("ellen_bst", Test_ellen.suite);
      ("natarajan_bst", Test_natarajan.suite);
      ("skiplist", Test_skiplist.suite);
      ("hash_table", Test_hash.suite);
      ("onefile", Test_onefile.suite);
      ("linearizability_checker", Test_lin.suite);
      ("explore", Test_explore.suite);
      ("sched", Test_sched.suite);
      ("native_domains", Test_native.suite);
      ("crash_sweep", Test_crash_sweep.suite);
      ("soft", Test_soft.suite);
      ("detectable", Test_detectable.suite);
      ("service", Test_service.suite);
      ("domains", Test_domains.suite);
      ("telemetry", Test_telemetry.suite);
      ("ablation", Test_ablation.suite);
      ("mutation", Test_mutation.suite);
      ("optimizer", Test_optimizer.suite);
      ("recovery", Test_recovery.suite);
      ("properties", Test_properties.suite);
      ("alloc", Test_alloc.suite) ]
