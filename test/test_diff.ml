(* Differential tests of batched incremental sessions, built on the replay
   harness in diff_harness.ml:

   - random edit batches replayed through apply_batch, a per-edit walk and
     the from-scratch estimator oracle;
   - undo/checkpoint/rollback interleaved with batches (a batched session
     tracks a per-edit one through arbitrary op sequences, and a fully
     rolled-back session refreshes to the exact state of a fresh one). *)

module H = Diff_harness
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Rng = Leakage_numeric.Rng

(* The observability contract says telemetry never perturbs a result, so the
   whole differential suite runs with metrics *and* span tracing on: every
   batch = per-edit = oracle assertion below doubles as a check of
   instrumented against oracle code paths. *)
let () =
  Leakage_telemetry.Telemetry.set_enabled true;
  Leakage_telemetry.Trace.start ()

let qtest ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed_pair = QCheck2.Gen.(tup2 (int_bound 100_000) (int_bound 100_000))

(* --------------------------------------------------------------- replay *)

let prop_replay =
  qtest ~count:8 "random batches = per-edit = oracle" seed_pair
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

(* ------------------------------------------- undo/checkpoint interleave *)

type op = Batch of Edit.t list | Undo | Checkpoint | Rollback

let random_ops rng nl n =
  List.init n (fun _ ->
      match Rng.int rng 8 with
      | 0 | 1 | 2 | 3 -> Batch (H.random_batch rng nl (1 + Rng.int rng 4))
      | 4 | 5 -> Undo
      | 6 -> Checkpoint
      | _ -> Rollback)

(* [batched] takes each batch through apply_batch, [per_edit] takes its
   edits one at a time; undo, checkpoint and rollback go to both. *)
let prop_ops_interleave =
  qtest ~count:10 "batch session tracks per-edit session" seed_pair
    (fun (cseed, oseed) ->
      let rng = Rng.create (cseed + 1) in
      let nl = H.random_netlist rng in
      let pattern = H.random_pattern rng nl in
      let orng = Rng.create (oseed + 1) in
      let batched = Incremental.create H.lib nl pattern in
      let per_edit = Incremental.create H.lib nl pattern in
      (* live checkpoints with the depth they were taken at; rolling back
         below a checkpoint invalidates it on both sessions alike *)
      let cps = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
           | Batch edits ->
             Incremental.apply_batch batched edits;
             List.iter (Incremental.apply per_edit) edits
           | Undo ->
             if Incremental.undo_depth batched > 0 then begin
               Incremental.undo batched;
               Incremental.undo per_edit;
               let d = Incremental.undo_depth batched in
               cps := List.filter (fun (_, _, cd) -> cd <= d) !cps
             end
           | Checkpoint ->
             cps :=
               (Incremental.checkpoint batched, Incremental.checkpoint per_edit,
                Incremental.undo_depth batched)
               :: !cps
           | Rollback ->
             (match !cps with
              | (cs, cp, d) :: rest ->
                Incremental.rollback batched cs;
                Incremental.rollback per_edit cp;
                ignore d;
                cps := rest
              | [] -> ()));
          match
            H.fingerprint_diff_assoc H.assoc_tol (H.fingerprint batched)
              (H.fingerprint per_edit)
          with
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
      while Incremental.undo_depth batched > 0 do
        Incremental.undo batched;
        Incremental.undo per_edit
      done;
      Incremental.refresh batched;
      Incremental.refresh per_edit;
      let fresh = Incremental.create H.lib nl pattern in
      (match H.fingerprint_diff (H.fingerprint fresh) (H.fingerprint batched) with
       | None -> ()
       | Some what ->
         ok := false;
         QCheck2.Test.fail_reportf
           "rolled-back batched session differs from fresh in %s" what);
      (match H.fingerprint_diff (H.fingerprint fresh) (H.fingerprint per_edit) with
       | None -> ()
       | Some what ->
         ok := false;
         QCheck2.Test.fail_reportf
           "rolled-back per-edit session differs from fresh in %s" what);
      !ok)

let test_rollback_after_batch () =
  (* checkpoint, one big batch, rollback, refresh — byte-identical to never
     having applied the batch *)
  let rng = Rng.create 23 in
  let nl = H.random_netlist rng in
  let pattern = H.random_pattern rng nl in
  let s = Incremental.create H.lib nl pattern in
  Incremental.refresh s;
  let before = H.fingerprint s in
  let cp = Incremental.checkpoint s in
  Incremental.apply_batch s (H.random_batch rng nl 16);
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
      ( "interleave",
        [
          prop_ops_interleave;
          Alcotest.test_case "rollback after batch" `Quick
            test_rollback_after_batch;
        ] );
    ]
