(* The benchmark's timing helpers: the monotonic measure and the
   percentile that refuses a tail it cannot support. *)

let of_list xs =
  let s = Timing.samples () in
  List.iter (Timing.add s) xs;
  s

let ints n = List.init n (fun i -> float_of_int (i + 1))

let test_measure () =
  let r, ns = Timing.measure (fun () -> 42) in
  Alcotest.(check int) "result passes through" 42 r;
  Alcotest.(check bool) "elapsed is not negative" true (ns >= 0);
  let a = Timing.now_ns () in
  let b = Timing.now_ns () in
  Alcotest.(check bool) "clock is monotonic" true (b >= a)

let test_nearest_rank () =
  let s = of_list (List.rev (ints 100)) in
  Alcotest.(check (result (float 0.) string)) "p50 of 1..100" (Ok 50.) (Timing.percentile s 50.);
  Alcotest.(check (result (float 0.) string)) "p90 of 1..100" (Ok 90.) (Timing.percentile s 90.);
  Timing.add s 0.5;
  Alcotest.(check (result (float 0.) string))
    "adding a sample re-sorts" (Ok 50.) (Timing.percentile s 50.)

let test_refuses_thin_tail () =
  let refused s p = Result.is_error (Timing.percentile s p) in
  Alcotest.(check bool) "p99 of 999 refused" true (refused (of_list (ints 999)) 99.);
  Alcotest.(check bool) "p99 of 1000 accepted" false (refused (of_list (ints 1000)) 99.);
  Alcotest.(check bool) "p50 of 19 refused" true (refused (of_list (ints 19)) 50.);
  Alcotest.(check bool) "p50 of 20 accepted" false (refused (of_list (ints 20)) 50.);
  Alcotest.(check bool) "empty refused" true (refused (of_list []) 50.);
  Alcotest.(check bool) "p100 refused" true (refused (of_list (ints 5000)) 100.);
  Alcotest.(check int) "p99 needs 1000" 1000 (Timing.needed 99.);
  Alcotest.(check int) "p50 needs 20" 20 (Timing.needed 50.)

let test_many_samples () =
  (* past the initial capacity, in reverse order: growth and the
     sort *)
  let n = 100_000 in
  let s = of_list (List.rev (ints n)) in
  Alcotest.(check int) "count" n (Timing.count s);
  Alcotest.(check (float 0.)) "sum" (float_of_int (n * (n + 1) / 2)) (Timing.sum s);
  Alcotest.(check (result (float 0.) string))
    "p99 of 1..100000" (Ok 99_000.) (Timing.percentile s 99.)

let test_quiet () =
  let quiet s = Timing.count (Timing.under (Timing.probe_limit ()) s) in
  let s = of_list (ints 3) in
  Alcotest.(check int) "samples outside an operation are quiet" 3 (quiet s);
  Timing.op (fun () ->
      List.iter (Timing.add s) (ints 5);
      Alcotest.(check int) "samples of an open operation are not" 3 (quiet s));
  for _ = 1 to 50 do
    Timing.op ignore
  done;
  Alcotest.(check int) "two probes per operation" 102 (Timing.probes_taken ());
  Alcotest.(check bool)
    "at least the ten fastest probes are at full speed" true
    (Timing.probes_quiet () >= 10);
  let q = quiet s in
  Alcotest.(check bool) "an operation's samples are kept or dropped together" true
    (q = 3 || q = 8);
  let lim = Timing.limit_for ~need:8 s in
  Alcotest.(check bool) "the limit is raised, never lowered" true (lim >= Timing.probe_limit ());
  Alcotest.(check int) "raised far enough for the samples needed" 8
    (Timing.count (Timing.under lim s));
  Alcotest.(check int) "not raised past what there is" (Timing.probe_limit ())
    (Timing.limit_for ~need:9 s)

let test_balanced () =
  (* 50 samples of each of two kinds; the selection keeps all of the
     first kind and a fifth of the second *)
  let all = Timing.samples () and sel = Timing.samples () in
  for i = 1 to 50 do
    Timing.add ~kind:0 all (float_of_int i);
    Timing.add ~kind:1 all (float_of_int (100 + i));
    Timing.add ~kind:0 sel (float_of_int i);
    if i <= 10 then Timing.add ~kind:1 sel (float_of_int (100 + i))
  done;
  let check name want got = Alcotest.(check (result (float 0.) string)) name (Ok want) got in
  check "p50 of all" 50. (Timing.percentile all 50.);
  check "plain p50 of the selection leans to the first kind" 30. (Timing.percentile sel 50.);
  check "balanced p50 keeps the kinds' shares" 50. (Timing.balanced_percentile ~all sel 50.);
  check "balanced p75" 105. (Timing.balanced_percentile ~all sel 75.);
  check "one kind is the plain percentile" 25.
    (Timing.balanced_percentile ~all:(of_list (ints 50)) (of_list (ints 50)) 50.);
  Alcotest.(check bool) "refused as percentile refuses" true
    (Result.is_error (Timing.balanced_percentile ~all sel 90.))

let () =
  Alcotest.run "perfbench"
    [
      ( "timing",
        [
          Alcotest.test_case "measure on the monotonic clock" `Quick test_measure;
          Alcotest.test_case "nearest-rank percentile" `Quick test_nearest_rank;
          Alcotest.test_case "percentile refuses a thin tail" `Quick test_refuses_thin_tail;
          Alcotest.test_case "many samples" `Quick test_many_samples;
          Alcotest.test_case "quiet samples" `Quick test_quiet;
          Alcotest.test_case "kind-balanced percentile" `Quick test_balanced;
        ] );
    ]
