(* Differential tests of the domain-parallel incremental session, built on
   the replay harness in diff_harness.ml:

   - random edit batches replayed through sequential apply_batch, parallel
     apply_batch at jobs ∈ {1,2,4,8} and the from-scratch estimator oracle;
   - the cone partitioner's contract (disjointness across groups, group
     count = overlap-graph component count, deterministic ordering);
   - undo/checkpoint/rollback interleaved with parallel batches (a pooled
     session tracks a sequential one bit-for-bit through arbitrary op
     sequences, and a fully rolled-back session refreshes to the exact
     state of a fresh one). *)

module H = Diff_harness
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Cone = Leakage_incremental.Cone
module Rng = Leakage_numeric.Rng

(* The observability contract says telemetry never perturbs a result, so the
   whole differential suite runs with metrics *and* span tracing on: every
   sequential = parallel = oracle assertion below doubles as a bit-identity
   check of instrumented against oracle code paths. *)
let () =
  Leakage_telemetry.Telemetry.set_enabled true;
  Leakage_telemetry.Trace.start ()

let qtest ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed_pair = QCheck2.Gen.(tup2 (int_bound 100_000) (int_bound 100_000))

(* --------------------------------------------------------------- replay *)

let prop_replay =
  qtest ~count:8 "random batches: sequential = parallel = oracle" seed_pair
    (fun (cseed, eseed) ->
      let rng = Rng.create (cseed + 1) in
      let nl = H.random_netlist rng in
      let pattern = H.random_pattern rng nl in
      let erng = Rng.create (eseed + 1) in
      let batches =
        List.init
          (1 + Rng.int erng 3)
          (fun _ -> H.random_batch erng nl (1 + Rng.int erng 9))
      in
      H.check ~name:"replay" nl pattern batches)

(* a deterministic replay so the harness also runs under `dune runtest`
   without qcheck's seed in play *)
let test_replay_fixed () =
  let rng = Rng.create 42 in
  let nl = H.random_netlist rng in
  let pattern = H.random_pattern rng nl in
  let batches =
    [ H.random_batch rng nl 6; H.random_batch rng nl 1; H.random_batch rng nl 12 ]
  in
  Alcotest.(check bool) "fixed replay" true
    (H.check ~name:"fixed" nl pattern batches)

(* ---------------------------------------------------------- partitioner *)

let ids_disjoint a b = List.for_all (fun x -> not (List.mem x b)) a

let cones_overlap (a : Cone.Partition.cone) (b : Cone.Partition.cone) =
  (not (ids_disjoint a.Cone.Partition.gates b.Cone.Partition.gates))
  || not (ids_disjoint a.Cone.Partition.nets b.Cone.Partition.nets)

(* reference component count: DFS over the pairwise cone-overlap graph *)
let overlap_components cones =
  let n = Array.length cones in
  let seen = Array.make n false in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      for j = 0 to n - 1 do
        if (not seen.(j)) && cones_overlap cones.(i) cones.(j) then dfs j
      done
    end
  in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if not seen.(i) then begin
      incr count;
      dfs i
    end
  done;
  !count

let strictly_increasing l = List.for_all2 ( < ) l (List.tl l @ [ max_int ])

let prop_partition =
  qtest ~count:50 "groups: disjoint cones, component count, ordering"
    seed_pair
    (fun (cseed, eseed) ->
      let rng = Rng.create (cseed + 1) in
      let nl = H.random_netlist rng in
      let erng = Rng.create (eseed + 1) in
      let n = 1 + Rng.int erng 11 in
      let edits = Array.init n (fun _ -> H.random_edit erng nl) in
      let cones = Array.map (Cone.Partition.cone nl) edits in
      let groups = Cone.Partition.groups nl edits in
      (* a partition of the batch indices *)
      let flat = List.concat_map Array.to_list (Array.to_list groups) in
      List.sort_uniq compare flat = List.init n Fun.id
      (* any two edits in different groups have disjoint gate AND net sets *)
      && (let ok = ref true in
          Array.iteri
            (fun gi ga ->
              Array.iteri
                (fun gj gb ->
                  if gi < gj then
                    Array.iter
                      (fun ei ->
                        Array.iter
                          (fun ej ->
                            if cones_overlap cones.(ei) cones.(ej) then
                              ok := false)
                          gb)
                      ga)
                groups)
            groups;
          !ok)
      (* group count equals the overlap graph's component count *)
      && Array.length groups = overlap_components cones
      (* deterministic ordering: members in batch order, groups by root *)
      && Array.for_all
           (fun g -> strictly_increasing (Array.to_list g))
           groups
      && strictly_increasing
           (List.map (fun g -> g.(0)) (Array.to_list groups)))

(* value-aware pruning: pruned cones are sound subsets of structural ones
   and the pruned partition refines the structural partition *)
let session_state nl pattern =
  {
    Cone.Partition.values = Leakage_circuit.Simulate.run nl pattern;
    kinds = Array.init (Netlist.gate_count nl) (Netlist.gate_kind nl);
  }

let subset a b = List.for_all (fun x -> List.mem x b) a

let prop_partition_pruned =
  qtest ~count:50 "pruned groups: subset cones, refinement, contract"
    seed_pair
    (fun (cseed, eseed) ->
      let rng = Rng.create (cseed + 1) in
      let nl = H.random_netlist rng in
      let pattern = H.random_pattern rng nl in
      let state = session_state nl pattern in
      let erng = Rng.create (eseed + 1) in
      let n = 1 + Rng.int erng 11 in
      let edits = Array.init n (fun _ -> H.random_edit erng nl) in
      let structural = Array.map (Cone.Partition.cone nl) edits in
      let pruned = Cone.Partition.cones ~state nl edits in
      let groups = Cone.Partition.groups ~state nl edits in
      (* each pruned cone is contained in its structural cone *)
      Array.for_all2
        (fun (p : Cone.Partition.cone) (s : Cone.Partition.cone) ->
          subset p.Cone.Partition.gates s.Cone.Partition.gates
          && subset p.Cone.Partition.nets s.Cone.Partition.nets)
        pruned structural
      (* still a partition of the batch indices *)
      && (let flat = List.concat_map Array.to_list (Array.to_list groups) in
          List.sort_uniq compare flat = List.init n Fun.id)
      (* groups match the pruned-cone overlap graph *)
      && Array.length groups = overlap_components pruned
      (* edits in different groups have disjoint pruned cones *)
      && (let ok = ref true in
          Array.iteri
            (fun gi ga ->
              Array.iteri
                (fun gj gb ->
                  if gi < gj then
                    Array.iter
                      (fun ei ->
                        Array.iter
                          (fun ej ->
                            if cones_overlap pruned.(ei) pruned.(ej) then
                              ok := false)
                          gb)
                      ga)
                groups)
            groups;
          !ok)
      (* same deterministic ordering contract as the structural partition *)
      && Array.for_all
           (fun g -> strictly_increasing (Array.to_list g))
           groups
      && strictly_increasing
           (List.map (fun g -> g.(0)) (Array.to_list groups))
      (* pruned cones only shrink, so the pruned partition refines the
         structural one: every pruned group sits inside one structural
         group *)
      && (let sgroups = Cone.Partition.groups nl edits in
          let sroot = Array.make n (-1) in
          Array.iter
            (fun g -> Array.iter (fun e -> sroot.(e) <- g.(0)) g)
            sgroups;
          Array.for_all
            (fun g -> Array.for_all (fun e -> sroot.(e) = sroot.(g.(0))) g)
            groups))

(* the canonical pruning scenario: a tapped chain under an all-zero pattern
   is cut at every gateway, so edits in distinct segments form distinct
   groups where the structural partition collapses them into one *)
let test_partition_pruned_chain () =
  let stages = 48 and tap_every = 8 in
  let nl = Leakage_benchmarks.Trees.chain ~stages ~tap_every () in
  let width = Array.length (Netlist.inputs nl) in
  let pattern = Array.make width Logic.Zero in
  let state = session_state nl pattern in
  (* one INV->BUF retype mid-segment in segments 0, 2, 4 *)
  let edits =
    Array.map
      (fun seg -> Edit.Retype ((seg * tap_every) + (tap_every / 2), Gate.Buf))
      [| 0; 2; 4 |]
  in
  let sgroups = Cone.Partition.groups nl edits in
  let pgroups = Cone.Partition.groups ~state nl edits in
  Alcotest.(check int) "structural: one downstream-entangled group" 1
    (Array.length sgroups);
  Alcotest.(check int) "pruned: one group per segment" 3
    (Array.length pgroups);
  (* pruned cones stop at the next gateway: a segment's worth of gates,
     not the rest of the chain *)
  let c = Cone.Partition.cone ~state nl edits.(0) in
  let reach = List.length c.Cone.Partition.gates in
  Alcotest.(check bool)
    (Printf.sprintf "pruned cone reach %d stays within a segment" reach)
    true
    (reach < 2 * tap_every);
  let s = Cone.Partition.cone nl edits.(0) in
  Alcotest.(check bool) "structural cone runs to the chain end" true
    (List.length s.Cone.Partition.gates > stages - tap_every)

let test_partition_singletons () =
  (* a one-edit batch is one group; an empty batch has no groups *)
  let rng = Rng.create 7 in
  let nl = H.random_netlist rng in
  let e = H.random_edit rng nl in
  Alcotest.(check int) "one group" 1
    (Array.length (Cone.Partition.groups nl [| e |]));
  Alcotest.(check int) "no groups" 0
    (Array.length (Cone.Partition.groups nl [||]))

(* ------------------------------------------- undo/checkpoint interleave *)

type op = Batch of Edit.t list | Undo | Checkpoint | Rollback

let random_ops rng nl n =
  List.init n (fun _ ->
      match Rng.int rng 8 with
      | 0 | 1 | 2 | 3 -> Batch (H.random_batch rng nl (1 + Rng.int rng 4))
      | 4 | 5 -> Undo
      | 6 -> Checkpoint
      | _ -> Rollback)

let prop_ops_interleave =
  qtest ~count:10 "pooled session tracks sequential through op sequences"
    seed_pair
    (fun (cseed, oseed) ->
      let rng = Rng.create (cseed + 1) in
      let nl = H.random_netlist rng in
      let pattern = H.random_pattern rng nl in
      let orng = Rng.create (oseed + 1) in
      let pool = List.nth (Lazy.force H.pools) (Rng.int orng 4) in
      let seq = Incremental.create H.lib nl pattern in
      let par = Incremental.create H.lib nl pattern in
      (* live checkpoints with the depth they were taken at; rolling back
         below a checkpoint invalidates it on both sessions alike *)
      let cps = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
           | Batch edits ->
             Incremental.apply_batch seq edits;
             Incremental.apply_batch ~pool par edits
           | Undo ->
             if Incremental.undo_depth seq > 0 then begin
               Incremental.undo seq;
               Incremental.undo par;
               let d = Incremental.undo_depth seq in
               cps := List.filter (fun (_, _, cd) -> cd <= d) !cps
             end
           | Checkpoint ->
             cps :=
               (Incremental.checkpoint seq, Incremental.checkpoint par,
                Incremental.undo_depth seq)
               :: !cps
           | Rollback ->
             (match !cps with
              | (cs, cp, d) :: rest ->
                Incremental.rollback seq cs;
                Incremental.rollback par cp;
                ignore d;
                cps := rest
              | [] -> ()));
          match H.fingerprint_diff (H.fingerprint seq) (H.fingerprint par) with
          | None -> ()
          | Some what ->
            ok := false;
            QCheck2.Test.fail_reportf "diverged in %s after %s" what
              (match op with
               | Batch es -> H.pp_batches [ es ]
               | Undo -> "undo"
               | Checkpoint -> "checkpoint"
               | Rollback -> "rollback"))
        (random_ops orng nl 14);
      (* roll everything back: refreshed state must equal a fresh session *)
      while Incremental.undo_depth seq > 0 do
        Incremental.undo seq;
        Incremental.undo par
      done;
      Incremental.refresh seq;
      Incremental.refresh par;
      let fresh = Incremental.create H.lib nl pattern in
      (match H.fingerprint_diff (H.fingerprint fresh) (H.fingerprint seq) with
       | None -> ()
       | Some what ->
         ok := false;
         QCheck2.Test.fail_reportf
           "rolled-back sequential session differs from fresh in %s" what);
      (match H.fingerprint_diff (H.fingerprint fresh) (H.fingerprint par) with
       | None -> ()
       | Some what ->
         ok := false;
         QCheck2.Test.fail_reportf
           "rolled-back pooled session differs from fresh in %s" what);
      !ok)

let test_rollback_after_parallel_batch () =
  (* the ISSUE's core scenario: checkpoint, one big pooled batch, rollback,
     refresh — byte-identical to never having applied the batch *)
  let rng = Rng.create 23 in
  let nl = H.random_netlist rng in
  let pattern = H.random_pattern rng nl in
  let pool = List.nth (Lazy.force H.pools) 2 (* jobs = 4 *) in
  let s = Incremental.create H.lib nl pattern in
  Incremental.refresh s;
  let before = H.fingerprint s in
  let cp = Incremental.checkpoint s in
  Incremental.apply_batch ~pool s (H.random_batch rng nl 16);
  Incremental.rollback s cp;
  Incremental.refresh s;
  match H.fingerprint_diff before (H.fingerprint s) with
  | None -> ()
  | Some what -> Alcotest.failf "state not restored: %s" what

let () =
  Alcotest.run "diff"
    [
      ( "replay",
        [ prop_replay; Alcotest.test_case "fixed batches" `Quick test_replay_fixed ] );
      ( "partition",
        [
          prop_partition;
          prop_partition_pruned;
          Alcotest.test_case "pruned chain segments" `Quick
            test_partition_pruned_chain;
          Alcotest.test_case "singletons" `Quick test_partition_singletons;
        ] );
      ( "interleave",
        [
          prop_ops_interleave;
          Alcotest.test_case "rollback after pooled batch" `Quick
            test_rollback_after_parallel_batch;
        ] );
    ]
