(* Test entry point: aggregates every library's suites under one alcotest
   runner so `dune runtest` exercises the whole stack. *)

let () =
  Alcotest.run "wsc_alloc"
    (List.concat
       [
         Test_substrate.suite;
         Test_hw.suite;
         Test_os.suite;
         Test_tcmalloc_units.suite;
         Test_tcmalloc_alloc.suite;
         Test_workload.suite;
         Test_fleet.suite;
         Test_integration.suite;
         Test_trace.suite;
         Test_trace_stream.suite;
         Test_replay.suite;
         Test_persist.suite;
         Test_properties.suite;
         Test_robustness.suite;
         Test_rseq.suite;
         Test_parallel.suite;
         Test_campaign.suite;
         Test_salvage.suite;
         Test_eventloop.suite;
         Test_backend.suite;
         Test_tune.suite;
         Test_refcheck.suite;
       ])
