let () =
  (* keep unlucky random expressions from determinizing for minutes *)
  Ode_event.Dfa.state_limit := 50_000;
  Alcotest.run "ode_events"
    [
      ("base", Test_base.suite);
      ("equivalence", Test_equivalence.suite);
      ("parser", Test_parser.suite);
      ("automata", Test_automata.suite);
      ("laws", Test_laws.suite);
      ("committed", Test_committed.suite);
      ("rewrite", Test_rewrite.suite);
      ("combine", Test_combine.suite);
      ("pipeline", Test_pipeline.suite);
      ("provenance", Test_provenance.suite);
      ("baseline", Test_baseline.suite);
      ("clock", Test_clock.suite);
      ("odb", Test_odb.suite);
      ("obs", Test_obs.suite);
      ("facade", Test_facade.suite);
      ("dispatch", Test_dispatch.suite);
      ("shard", Test_shard.suite);
      ("alloc", Test_alloc.suite);
      ("time-events", Test_time.suite);
      ("timer", Test_timer.suite);
      ("persistence", Test_persistence.suite);
      ("coupling", Test_coupling.suite);
      ("stockroom", Test_stockroom.suite);
      ("scope-and-history", Test_scope.suite);
      ("fulfillment", Test_fulfillment.suite);
      ("odl", Test_odl.suite);
      ("soak", Test_soak.suite);
      ("committed-integration", Test_committed_integration.suite);
      ("wal", Test_wal.suite);
      ("txn-events", Test_txn_events.suite);
      ("net", Test_net.suite);
    ]
