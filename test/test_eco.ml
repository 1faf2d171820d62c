(* Tests for the incremental/ECO recompute engine: cone-dirtying rules
   on hand-built fixtures, full-vs-incremental canonical identity,
   snapshot round-trip, pinned emask-eco/1 bytes, jobs byte-identity,
   and physical reuse of out-of-cone SPCF handles. The randomized counterpart is the
   eco-equal differential fuzz oracle. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Two independent cones: y1 = AN2(a, b), y2 = OR2(c, d). *)
let disjoint_design () =
  let m = Mapped.create () in
  let a = Mapped.add_input m "a" in
  let b = Mapped.add_input m "b" in
  let c = Mapped.add_input m "c" in
  let d = Mapped.add_input m "d" in
  let g1 = Mapped.add_gate m ~name:"g1" Cell.an2 [| a; b |] in
  let g2 = Mapped.add_gate m ~name:"g2" Cell.or2 [| c; d |] in
  Mapped.mark_output m ~name:"y1" g1;
  Mapped.mark_output m ~name:"y2" g2;
  m

(* Reconvergent diamond: n1 = IV(a), n2 = IV(a), n3 = AN2(n1, n2),
   plus a dead gate n4 = IV(b) nothing consumes. *)
let diamond_design () =
  let m = Mapped.create () in
  let a = Mapped.add_input m "a" in
  let b = Mapped.add_input m "b" in
  let n1 = Mapped.add_gate m ~name:"n1" Cell.inv [| a |] in
  let n2 = Mapped.add_gate m ~name:"n2" Cell.inv [| a |] in
  let n3 = Mapped.add_gate m ~name:"n3" Cell.an2 [| n1; n2 |] in
  let _n4 = Mapped.add_gate m ~name:"n4" Cell.inv [| b |] in
  Mapped.mark_output m ~name:"y" n3;
  m

let sig_named d name =
  match Eco.find_signal d name with
  | Some s -> s
  | None -> Alcotest.failf "no signal %S" name

let dirty_names d dirty =
  let out = ref [] in
  Array.iteri (fun s b -> if b && Eco.live d s then out := Eco.signal_name d s :: !out) dirty;
  List.sort compare !out

(* --- cone-dirtying fixtures -------------------------------------------- *)

let test_cone_pi_feed () =
  (* Rewiring a gate fed directly by a PI dirties the gate's fanout
     closure only — never the PI or the sibling cone. *)
  let d = Eco.design_of_mapped (disjoint_design ()) in
  let g1 = sig_named d "g1" and c = sig_named d "c" in
  let a = Eco.apply d (Rewire { target = g1; pin = 0; fanin = c }) in
  check_int "one structural seed" 1 (List.length a.Eco.seeds);
  let dirty = Eco.dirty_cone a.Eco.next ~model:Sta.Library a.Eco.seeds a.Eco.load_seeds in
  check_string "library-model cone" "g1" (String.concat "," (dirty_names a.Eco.next dirty));
  (* Under the load-dependent model the rewired pins' drivers are also
     seeds; both are PIs here, whose delay is 0 under every model, so
     the cone is unchanged. *)
  let dirty_ld =
    Eco.dirty_cone a.Eco.next ~model:(Sta.Library_load 0.1) a.Eco.seeds a.Eco.load_seeds
  in
  check_string "load-model cone" "g1" (String.concat "," (dirty_names a.Eco.next dirty_ld))

let test_cone_reconvergent () =
  (* Editing one branch of the diamond dirties that branch and the
     reconvergence point, not the other branch. *)
  let d = Eco.design_of_mapped (diamond_design ()) in
  let n1 = sig_named d "n1" and b = sig_named d "b" in
  let a = Eco.apply d (Rewire { target = n1; pin = 0; fanin = b }) in
  let dirty = Eco.dirty_cone a.Eco.next ~model:Sta.Library a.Eco.seeds a.Eco.load_seeds in
  check_string "diamond cone" "n1,n3" (String.concat "," (dirty_names a.Eco.next dirty))

let test_cone_dead () =
  (* An edit inside a dead cone dirties only the dead gate. *)
  let d = Eco.design_of_mapped (diamond_design ()) in
  let n4 = sig_named d "n4" and a_pi = sig_named d "a" in
  let a = Eco.apply d (Rewire { target = n4; pin = 0; fanin = a_pi }) in
  let dirty = Eco.dirty_cone a.Eco.next ~model:Sta.Library a.Eco.seeds a.Eco.load_seeds in
  check_string "dead cone" "n4" (String.concat "," (dirty_names a.Eco.next dirty))

let test_cone_output_edits () =
  (* Output add/drop changes no gate function: structurally clean under
     the library model; under the load model only the target's driver
     (and closure) is dirtied, because the primary-output load moved. *)
  let d = Eco.design_of_mapped (disjoint_design ()) in
  let g1 = sig_named d "g1" in
  let a = Eco.apply d (Add_output { oname = "y3"; target = g1 }) in
  check "no structural seeds" true (a.Eco.seeds = []);
  let dirty = Eco.dirty_cone a.Eco.next ~model:Sta.Library a.Eco.seeds a.Eco.load_seeds in
  check_string "library add-output cone" "" (String.concat "," (dirty_names a.Eco.next dirty));
  let dirty_ld =
    Eco.dirty_cone a.Eco.next ~model:(Sta.Library_load 0.1) a.Eco.seeds a.Eco.load_seeds
  in
  check_string "load add-output cone" "g1"
    (String.concat "," (dirty_names a.Eco.next dirty_ld));
  let a2 = Eco.apply a.Eco.next (Drop_output { oname = "y3" }) in
  check "drop has no structural seeds" true (a2.Eco.seeds = [])

(* --- full vs incremental ------------------------------------------------ *)

let check_equal_analyses name ?(theta = 0.5) ?(model = Sta.Library) ?band circuit
    edits =
  let d = Eco.design_of_mapped circuit in
  let base = Eco.snapshot ~theta ~model ?band d in
  let incr = Eco.recompute base edits in
  let d', _, _ = Eco.apply_all d edits in
  let full = Eco.snapshot ~theta ~model ?band d' in
  check_string name (Eco.canonical full) (Eco.canonical incr)

let test_full_vs_incremental () =
  let d0 = Eco.design_of_mapped (diamond_design ()) in
  let n1 = sig_named d0 "n1" and b = sig_named d0 "b" in
  check_equal_analyses "diamond rewire" (diamond_design ())
    [ Rewire { target = n1; pin = 0; fanin = b } ];
  check_equal_analyses "diamond rewire (load model)" ~model:(Sta.Library_load 0.1)
    (diamond_design ())
    [ Rewire { target = n1; pin = 0; fanin = b } ];
  check_equal_analyses "diamond rewire (sens band)" ~band:0.6 (diamond_design ())
    [ Rewire { target = n1; pin = 0; fanin = b } ];
  let dd = Eco.design_of_mapped (disjoint_design ()) in
  let g1 = sig_named dd "g1" and g2 = sig_named dd "g2" in
  let a_pi = sig_named dd "a" in
  check_equal_analyses "remove + add + outputs" (disjoint_design ())
    [
      Add { aname = "e1"; cell = Cell.eo; fanins = [| g1; g2 |] };
      Add_output { oname = "y3"; target = sig_named dd "g1" };
      Remove { target = g1 };
      Add_output { oname = "y4"; target = a_pi };
      Drop_output { oname = "y2" };
    ]

(* --- snapshot round-trip ------------------------------------------------ *)

let test_snapshot_roundtrip () =
  let d = Eco.design_of_mapped (diamond_design ()) in
  let t = Eco.snapshot ~theta:0.5 ~band:0.6 d in
  let t' = Eco.deserialize (Eco.serialize t) in
  check_string "fingerprint survives the round-trip" (Eco.fingerprint t)
    (Eco.fingerprint t');
  check_string "serialization is stable" (Eco.serialize t) (Eco.serialize t');
  (* A deserialized snapshot is a live baseline: editing it must agree
     with a from-scratch analysis. *)
  let n2 = sig_named t'.Eco.design "n2" and b = sig_named t'.Eco.design "b" in
  let incr = Eco.recompute t' [ Rewire { target = n2; pin = 0; fanin = b } ] in
  let d', _, _ =
    Eco.apply_all t'.Eco.design [ Rewire { target = n2; pin = 0; fanin = b } ]
  in
  let full = Eco.snapshot ~theta:0.5 ~band:0.6 d' in
  check_string "recompute from deserialized snapshot" (Eco.canonical full)
    (Eco.canonical incr)

(* Pinned emask-eco/1 bytes of a C432 snapshot (theta 0.5, band 0.6).
   The persisted format is a function of the analysis, never of the BDD
   kernel's node encoding, so a fresh snapshot must serialize to
   exactly these bytes and a deserialized one must write them back
   unchanged. *)
let pinned_c432 = "fixtures/c432_theta05_band06.eco"

let test_format_pinned () =
  let pinned = In_channel.with_open_bin pinned_c432 In_channel.input_all in
  let d = Eco.design_of_mapped (Mapper.map (Suite.load "C432")) in
  let t = Eco.snapshot ~theta:0.5 ~band:0.6 d in
  check_string "fresh snapshot matches the pinned bytes" pinned (Eco.serialize t);
  let t' = Eco.deserialize pinned in
  check_string "pinned bytes round-trip" pinned (Eco.serialize t');
  check_string "round-trip canonical form" (Eco.canonical t) (Eco.canonical t')

(* --- jobs byte-identity ------------------------------------------------- *)

let test_jobs_identity () =
  (* theta 0.5 gives C432 several critical outputs, so jobs > 1
     actually fans out. The canonical form must not depend on jobs. *)
  let d = Eco.design_of_mapped (Mapper.map (Suite.load "C432")) in
  let edit =
    match Eco.smallest_cone_edit d with
    | Some e -> e
    | None -> Alcotest.fail "no 1-gate edit on C432"
  in
  let base = Eco.snapshot ~theta:0.5 d in
  let reference = Eco.canonical (Eco.recompute ~jobs:1 base [ edit ]) in
  List.iter
    (fun jobs ->
      let got = Eco.canonical (Eco.recompute ~jobs base [ edit ]) in
      check_string (Printf.sprintf "jobs=%d identical" jobs) reference got)
    [ 2; 4; 8 ];
  let d', _, _ = Eco.apply_all d [ edit ] in
  check_string "matches full recompute" (Eco.canonical (Eco.snapshot ~theta:0.5 d'))
    reference

(* --- physical reuse ----------------------------------------------------- *)

let test_sigma_handle_reused () =
  let d = Eco.design_of_mapped (disjoint_design ()) in
  let g1 = sig_named d "g1" and c = sig_named d "c" in
  let base = Eco.snapshot ~theta:0.5 d in
  let sigma_of t nm =
    match List.find_opt (fun (n, _, _) -> n = nm) t.Eco.sigmas with
    | Some (_, _, s) -> (s : Bdd.t :> int)
    | None -> Alcotest.failf "%s not critical" nm
  in
  let incr = Eco.recompute base [ Rewire { target = g1; pin = 0; fanin = c } ] in
  (* y2's cone is untouched: its Σ must be the very same node handle in
     the shared manager — reused, not recomputed. *)
  check_int "y2 sigma physically reused" (sigma_of base "y2") (sigma_of incr "y2");
  check "y2 counted as reused" true (incr.Eco.stats.Eco.sigmas_reused >= 1);
  check "y1 recomputed" true (incr.Eco.stats.Eco.sigmas_recomputed >= 1);
  let g2 = sig_named d "g2" in
  let func_of t s =
    (t.Eco.ctx.Spcf.Ctx.funcs.(t.Eco.sig_of.(s)) : Bdd.t :> int)
  in
  check_int "g2 node function physically reused" (func_of base g2) (func_of incr g2);
  check "dirty cone is small" true
    (incr.Eco.stats.Eco.dirty_signals < incr.Eco.stats.Eco.total_signals)

(* --- edit-list text format ---------------------------------------------- *)

let test_edit_text_roundtrip () =
  let d = Eco.design_of_mapped (disjoint_design ()) in
  let g1 = sig_named d "g1" and g2 = sig_named d "g2" in
  let a_pi = sig_named d "a" in
  let edits =
    [
      Eco.Add { aname = "e1"; cell = Cell.eo; fanins = [| g1; g2 |] };
      Eco.Add_output { oname = "y3"; target = g1 };
      Eco.Rewire { target = g2; pin = 1; fanin = a_pi };
      Eco.Remove { target = g1 };
      Eco.Drop_output { oname = "y2" };
    ]
  in
  let text = Eco.edits_to_string d edits in
  let parsed = Eco.parse_edits d text in
  check_string "text round-trip" text (Eco.edits_to_string d parsed);
  check "structural round-trip" true (parsed = edits);
  (* Comments and blank lines are skipped; junk is rejected. *)
  check "comments skipped" true (Eco.parse_edits d ("# hi\n\n" ^ text) = edits);
  check "junk rejected" true
    (match Eco.parse_edits d "frobnicate g1\n" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_apply_validation () =
  let d = Eco.design_of_mapped (disjoint_design ()) in
  let g1 = sig_named d "g1" and g2 = sig_named d "g2" in
  let rejects name edit =
    check name true
      (match Eco.apply d edit with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects "arity mismatch" (Replace { target = g1; cell = Cell.inv; fanins = [| g1; g2 |] });
  rejects "forward fanin (cycle)" (Rewire { target = g1; pin = 0; fanin = g2 });
  rejects "self fanin" (Rewire { target = g1; pin = 0; fanin = g1 });
  rejects "pin out of range" (Rewire { target = g1; pin = 2; fanin = 0 });
  rejects "PI is not a gate" (Remove { target = sig_named d "a" });
  rejects "duplicate name" (Add { aname = "g2"; cell = Cell.inv; fanins = [| g1 |] });
  rejects "duplicate output" (Add_output { oname = "y1"; target = g2 });
  rejects "unknown output" (Drop_output { oname = "nope" });
  let only = Eco.apply d (Drop_output { oname = "y1" }) in
  check "last output protected" true
    (match Eco.apply only.Eco.next (Drop_output { oname = "y2" }) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "eco"
    [
      ( "cones",
        [
          Alcotest.test_case "edit fed by a PI" `Quick test_cone_pi_feed;
          Alcotest.test_case "reconvergent node" `Quick test_cone_reconvergent;
          Alcotest.test_case "dead cone" `Quick test_cone_dead;
          Alcotest.test_case "output add/drop" `Quick test_cone_output_edits;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "full vs incremental" `Quick test_full_vs_incremental;
          Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "emask-eco/1 bytes pinned (C432)" `Quick
            test_format_pinned;
          Alcotest.test_case "jobs byte-identity" `Quick test_jobs_identity;
          Alcotest.test_case "sigma handle reuse" `Quick test_sigma_handle_reused;
        ] );
      ( "edits",
        [
          Alcotest.test_case "text round-trip" `Quick test_edit_text_roundtrip;
          Alcotest.test_case "validation" `Quick test_apply_validation;
        ] );
    ]
