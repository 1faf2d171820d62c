(* Tests for static timing analysis and the simulators (bit-parallel
   logic simulation, event-driven timing simulation, power estimation). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---------- STA ---------- *)

let comparator_mapped () =
  let net = Comparator.network () in
  let mc, smap = Mapper.map_with_signals net in
  let sig_of name = smap.(Option.get (Network.find net name)) in
  (mc, sig_of)

let test_sta_comparator () =
  let mc, sig_of = comparator_mapped () in
  let sta = Sta.analyze ~model:Sta.Paper_units mc in
  checkf "delta = 7" 7.0 (Sta.delta sta);
  (* Arrival times from the paper's Fig. 2(a). *)
  let arr name = Sta.arrival sta (sig_of name) in
  checkf "nb0" 1.0 (arr "nb0");
  checkf "or1" 3.0 (arr "or1");
  checkf "and1" 5.0 (arr "and1");
  checkf "and2" 3.0 (arr "and2");
  checkf "y" 7.0 (arr "y");
  (* Criticality at the paper's 6.3 target. *)
  let crit = Sta.critical_outputs sta ~target:6.3 in
  check_int "one critical output" 1 (Array.length crit);
  let gates = Sta.critical_signals sta ~target:6.3 in
  let is name = gates.(sig_of name) in
  check "nb0 critical" true (is "nb0");
  check "nb1 critical" true (is "nb1");
  check "and2 not critical" false (is "and2")

let test_sta_tail_and_slack () =
  let mc, sig_of = comparator_mapped () in
  let sta = Sta.analyze ~model:Sta.Paper_units mc in
  (* tail(or1) = and1 (2) + y (2) = 4 *)
  checkf "tail or1" 4.0 (Sta.tail sta (sig_of "or1"));
  checkf "slack or1 at 7" 0.0 (Sta.slack sta ~target:7.0 (sig_of "or1"));
  (* arrival + tail along the critical path equals delta *)
  let path, len = Sta.longest_path sta in
  checkf "longest path length" 7.0 len;
  List.iter
    (fun s -> checkf "on-path arr+tail" 7.0 (Sta.arrival sta s +. Sta.tail sta s))
    path

let test_sta_models () =
  let mc = Comparator.mapped () in
  let unit_sta = Sta.analyze ~model:Sta.Unit mc in
  (* Unit model: depth of the comparator netlist is 4 gates. *)
  checkf "unit delta" 4.0 (Sta.delta unit_sta);
  let lib = Sta.analyze ~model:Sta.Library mc in
  check "library delta positive" true (Sta.delta lib > 0.);
  let load = Sta.analyze ~model:(Sta.Library_load 0.01) mc in
  check "load model is slower" true (Sta.delta load > Sta.delta lib)

let test_sta_monotone_arrival () =
  let net = Suite.load "C880" in
  let mc = Mapper.map net in
  let sta = Sta.analyze mc in
  let mnet = Mapped.network mc in
  Array.iter
    (fun s ->
      match Network.node_of mnet s with
      | None -> ()
      | Some nd ->
        Array.iter
          (fun f ->
            check "arrival strictly grows through gates" true
              (Sta.arrival sta s > Sta.arrival sta f))
          nd.Network.fanins)
    (Network.topo_order mnet)

(* ---------- Bit-parallel simulation ---------- *)

(* Every bit 0-61 of [words] random words against the scalar
   [Network.eval] reference. *)
let check_bitsim_net ~what net rng ~words:nwords =
  let sim = Bitsim.prepare net in
  for _ = 1 to nwords do
    let words = Bitsim.random_pi_words sim rng in
    let values = Bitsim.eval_word sim words in
    for bit = 0 to 61 do
      let pattern = Array.map (fun w -> w lsr bit land 1 = 1) words in
      Array.iteri
        (fun s v ->
          if (values.(s) lsr bit land 1 = 1) <> v then
            Alcotest.failf "%s: signal %s bit %d: bitsim <> eval" what
              (Network.name_of net s) bit)
        (Network.eval net pattern)
    done
  done

(* Under `dune runtest` the cwd is the test directory (fixtures are
   declared deps); fall back for manual runs from the repo root. *)
let fixture_path name =
  let candidates =
    [ Filename.concat "fixtures" name; Filename.concat "test/fixtures" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "fixture %s not found" name

let test_bitsim_matches_eval () =
  let rng = Util.Rng.create 11 in
  check_bitsim_net ~what:"x2" (Suite.load "x2") rng ~words:20;
  List.iter
    (fun name ->
      check_bitsim_net ~what:name (Blif.parse_file (fixture_path name)) rng ~words:4)
    [
      "gen_edge_const_only.blif";
      "gen_edge_npo.blif";
      "gen_edge_one_pi.blif";
      "gen_edge_zero_gates.blif";
    ];
  let frng = Fuzz.Rng.create ~seed:12 in
  let spec = ref (Fuzz.Gen.generate frng) in
  (* Shapes the corpus must reach: zero-cube covers, zero-literal
     cubes, duplicate fanins, 1-input gates, zero-gate nets. *)
  let seen = Array.make 5 false in
  let note (nd : Fuzz.Gen.node) =
    let cubes = Logic2.Cover.cubes nd.func in
    let fanins = Array.to_list nd.fanins in
    if cubes = [] then seen.(0) <- true;
    if List.exists Logic2.Cube.is_universe cubes then seen.(1) <- true;
    if List.length (List.sort_uniq compare fanins) < List.length fanins then
      seen.(2) <- true;
    if List.length fanins = 1 then seen.(3) <- true
  in
  for i = 1 to 240 do
    (* Alternate fresh specimens with mutations of the last one. *)
    spec := if i mod 2 = 0 then Fuzz.Gen.mutate frng !spec else Fuzz.Gen.generate frng;
    Array.iter note !spec.nodes;
    if !spec.nodes = [||] then seen.(4) <- true;
    check_bitsim_net ~what:(Printf.sprintf "fuzz specimen %d" i)
      (Fuzz.Gen.network !spec) rng ~words:2
  done;
  Array.iteri
    (fun i hit ->
      check
        ([| "zero-cube cover"; "zero-literal cube"; "duplicate fanin";
            "1-input gate"; "zero-gate net" |].(i) ^ " reached")
        true hit)
    seen

let test_popcount () =
  let naive x =
    let c = ref 0 in
    for b = 0 to 62 do
      c := !c + ((x lsr b) land 1)
    done;
    !c
  in
  let agree x = check_int (Printf.sprintf "popcount %#x" x) (naive x) (Bitsim.popcount x) in
  List.iter agree [ 0; 1; 1 lsl 61; (1 lsl 62) - 1 ];
  let rng = Util.Rng.create 5 in
  for _ = 1 to 10_000 do
    (* A random 62-bit value from two 31-bit halves. *)
    agree ((Util.Rng.int rng (1 lsl 31) lsl 31) lor Util.Rng.int rng (1 lsl 31))
  done

(* Pinned bit-for-bit from the interpretive evaluator this kernel
   replaced: any drift in toggle counting (the 61-bit within-word mask,
   the seam bit, pairs = (rounds - 1) * 62) or in the RNG stream moves
   these. *)
let test_power_pinned () =
  List.iter
    (fun (name, expected) ->
      let mc = Mapper.map (Suite.load name) in
      Alcotest.(check (float 0.))
        (name ^ " power, 128 rounds") expected
        (Power.total ~rounds:128 mc))
    [
      ("i1", 0x1.a321edf9adfddp+6);
      ("C432", 0x1.6106eb273c4dap+7);
      ("C880", 0x1.9fa876ea876e5p+8);
    ];
  let sim = Bitsim.of_mapped (Mapper.map (Suite.load "i1")) in
  let toggles =
    [| 3988; 4032; 3915; 3878; 3971; 3932; 3928; 3941; 3879; 3960; 3981; 3993;
       3991; 3922; 3907; 3988; 3981; 3951; 3895; 3835; 3939; 3970; 3950; 3927;
       3942; 3993; 936; 3950; 3981; 1720; 3970; 894; 3950; 3960; 1750; 2951;
       3895; 3835; 3942; 905; 3939; 1698; 3686; 960; 2970; 996; 3388; 3951;
       1719; 3971; 3915; 3981; 3932; 266; 1104; 12; 3988; 3686; 3988; 1719;
       866; 3889; 3273; 4032; 3879; 936; 0; 3874; 0; 3063; 2663; 3681; 3741;
       1741; 0; 0; 2854; 3331; 3236; 3975; 3975; 0; 3993; 3945; 3924; 3916;
       3908; 4010; 2860; 2829; 2823; 3940; 3391; 3774; 3888; 3946; 3872; 3906;
       3042; 3978; 3886; 3935; 3901; 3801; 3797; 3947; 2896; 2887; 2944; 3935;
       3847 |]
  in
  let pairs = 127 * 62 in
  let expected = Array.map (fun c -> float_of_int c /. float_of_int pairs) toggles in
  let got = Bitsim.activities sim (Util.Rng.create 1) ~rounds:128 in
  check_int "i1 signals" (Array.length expected) (Array.length got);
  Array.iteri
    (fun s a -> Alcotest.(check (float 0.)) (Printf.sprintf "i1 activity %d" s) a got.(s))
    expected

let test_power_report () =
  let net = Suite.load "i1" in
  let mc = Mapper.map net in
  let r = Power.estimate ~rounds:64 mc in
  check "total positive" true (r.Power.total > 0.);
  Array.iter (fun a -> check "activity in [0,1]" true (a >= 0. && a <= 1.)) r.Power.activity;
  (* Power is deterministic in the seed. *)
  checkf "deterministic" r.Power.total (Power.total ~rounds:64 mc)

(* ---------- Event-driven timing simulation ---------- *)

let test_tsim_settles_to_eval () =
  let net = Suite.load "cu" in
  let mc = Mapper.map net in
  let delays = Sta.gate_delays Sta.Library mc in
  let mnet = Mapped.network mc in
  let n_in = Array.length (Network.inputs mnet) in
  let rng = Util.Rng.create 21 in
  for _ = 1 to 100 do
    let from_ = Array.init n_in (fun _ -> Util.Rng.bool rng) in
    let to_ = Array.init n_in (fun _ -> Util.Rng.bool rng) in
    let r = Tsim.simulate mc ~delays ~from_ ~to_ ~clock:1000. in
    check "final = functional eval" true (r.Tsim.final = Network.eval mnet to_);
    (* With a clock beyond the settle time, capture equals final. *)
    check "late clock captures final" true (r.Tsim.at_clock = r.Tsim.final)
  done

let test_tsim_settle_bounded_by_sta () =
  let net = Suite.load "C432" in
  let mc = Mapper.map net in
  let sta = Sta.analyze mc in
  let delays = Sta.gate_delays Sta.Library mc in
  let mnet = Mapped.network mc in
  let n_in = Array.length (Network.inputs mnet) in
  let rng = Util.Rng.create 22 in
  for _ = 1 to 50 do
    let from_ = Array.init n_in (fun _ -> Util.Rng.bool rng) in
    let to_ = Array.init n_in (fun _ -> Util.Rng.bool rng) in
    let r = Tsim.simulate mc ~delays ~from_ ~to_ ~clock:1000. in
    check "settle within structural delta" true (r.Tsim.settle <= Sta.delta sta +. 1e-9)
  done

let test_tsim_capture_stale () =
  (* A two-inverter chain; clock before the second inverter settles. *)
  let net = Network.create () in
  let a = Network.add_input net "a" in
  let inv = Logic2.Sop.parse ~vars:[| "x" |] "!x" in
  let n1 = Network.add_node net "n1" ~fanins:[| a |] ~func:inv in
  let n2 = Network.add_node net "n2" ~fanins:[| n1 |] ~func:inv in
  Network.mark_output net ~name:"z" n2;
  let mc, smap = Mapper.map_with_signals net in
  let delays = Sta.gate_delays Sta.Unit mc in
  let r = Tsim.simulate mc ~delays ~from_:[| false |] ~to_:[| true |] ~clock:1.5 in
  let z = smap.(n2) in
  check "final correct" true r.Tsim.final.(z);
  check "capture is stale" false r.Tsim.at_clock.(z)

let test_degraded_delays () =
  let base = [| 1.0; 2.0; 3.0 |] in
  let aged = Tsim.degraded_delays base ~factor:1.5 ~on:(fun s -> s = 1) in
  checkf "untouched" 1.0 aged.(0);
  checkf "aged" 3.0 aged.(1);
  checkf "untouched2" 3.0 aged.(2)

(* ---------- Heap ---------- *)

let test_heap_order_and_stability () =
  let h = Util.Heap.create (-1) in
  Util.Heap.push h 3.0 1;
  Util.Heap.push h 1.0 2;
  Util.Heap.push h 2.0 3;
  Util.Heap.push h 1.0 4;
  (* pops in key order; FIFO among equal keys *)
  check "pop1" true (Util.Heap.pop h = Some (1.0, 2));
  check "pop2" true (Util.Heap.pop h = Some (1.0, 4));
  check "pop3" true (Util.Heap.pop h = Some (2.0, 3));
  check "pop4" true (Util.Heap.pop h = Some (3.0, 1));
  check "empty" true (Util.Heap.pop h = None)

let test_heap_random () =
  let rng = Util.Rng.create 99 in
  let h = Util.Heap.create (-1) in
  let items = List.init 500 (fun i -> (Util.Rng.float rng, i)) in
  List.iter (fun (k, v) -> Util.Heap.push h k v) items;
  let rec drain last acc =
    match Util.Heap.pop h with
    | None -> acc
    | Some (k, _) ->
      check "nondecreasing keys" true (k >= last);
      drain k (acc + 1)
  in
  check_int "all popped" 500 (drain neg_infinity 0)

let () =
  Alcotest.run "timing-sim"
    [
      ( "sta",
        [
          Alcotest.test_case "comparator fig2" `Quick test_sta_comparator;
          Alcotest.test_case "tail and slack" `Quick test_sta_tail_and_slack;
          Alcotest.test_case "delay models" `Quick test_sta_models;
          Alcotest.test_case "monotone arrivals" `Quick test_sta_monotone_arrival;
        ] );
      ( "bitsim",
        [
          Alcotest.test_case "matches eval" `Quick test_bitsim_matches_eval;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "power report" `Quick test_power_report;
          Alcotest.test_case "power pinned" `Quick test_power_pinned;
        ] );
      ( "tsim",
        [
          Alcotest.test_case "settles to eval" `Quick test_tsim_settles_to_eval;
          Alcotest.test_case "settle bounded by STA" `Quick test_tsim_settle_bounded_by_sta;
          Alcotest.test_case "stale capture" `Quick test_tsim_capture_stale;
          Alcotest.test_case "degraded delays" `Quick test_degraded_delays;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order + stability" `Quick test_heap_order_and_stability;
          Alcotest.test_case "random drain" `Quick test_heap_random;
        ] );
    ]
