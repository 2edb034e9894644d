let () =
  Alcotest.run "pseudosphere"
    (Test_topology.suites @ Test_bitmat.suites @ Test_topology_ext.suites
    @ Test_chain_random.suites
    @ Test_model.suites @ Test_core.suites @ Test_agreement.suites
    @ Test_extensions.suites @ Test_extensions2.suites @ Test_iis.suites
    @ Test_carrier_map.suites @ Test_connectivity_cert.suites
    @ Test_integration.suites @ Test_coverage.suites @ Test_complex_io.suites
    @ Test_models.suites @ Test_solver_tier.suites @ Test_engine.suites
    @ Test_obs.suites
    @ Test_net.suites @ Test_load.suites)
