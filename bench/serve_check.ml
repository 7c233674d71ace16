(* serve_check: end-to-end gate for the serve subsystem.

   Starts an in-process daemon on a temp socket, replays a deterministic
   golden edit script through the wire, and fails unless:

   1. every queried total is bit-identical to a direct Incremental session
      replaying the same script (including across checkpoint/rollback);
   2. two concurrent clients sharing one warm session, editing disjoint
      gate sets, land in a refreshed state bit-identical to one sequential
      direct session with the same final state;
   3. a warm re-open of the already-live session is at least 10x faster
      than the cold open was;
   4. the metrics snapshot carries non-empty serve.request_us latency
      series for the open, apply and query ops. *)

module Params = Leakage_device.Params
module Physics = Leakage_device.Physics
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Library = Leakage_core.Library
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Suite = Leakage_benchmarks.Suite
module Telemetry = Leakage_telemetry.Telemetry
module Protocol = Leakage_server.Protocol
module Server = Leakage_server.Server
module Client = Leakage_server.Client

let circuit = "s838"

let check cond fmt = Gate_kit.check "serve_check" cond fmt

(* ------------------------------------------------- golden edit script *)

(* Deterministic, data-dependent script: resizes and input flips spread by
   fixed strides, plus arity-preserving retypes on 2-input gates. *)
let golden_batches nl =
  let n = Netlist.gate_count nl in
  let n_in = Array.length (Netlist.inputs nl) in
  List.init 8 (fun b ->
      List.init 4 (fun k ->
          let pick = (b * 37 + k * 13 + 5) mod n in
          match k with
          | 0 -> Protocol.Resize (pick, 1.0 +. (float_of_int ((b + k) mod 7) /. 4.0))
          | 1 -> Protocol.Set_input ((b * 11 + 3) mod n_in, (b + k) mod 2 = 0)
          | _ ->
            (* retype only where we can name a same-arity cell *)
            let rec arity2 i =
              if Netlist.gate_arity nl i = 2 then i
              else arity2 ((i + 1) mod n)
            in
            let g = arity2 pick in
            Protocol.Retype (g, if (b + k) mod 2 = 0 then "nand2" else "nor2")))

let () =
  Telemetry.set_enabled true;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "leak-serve-check-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "leak.sock" in
  let server =
    Server.create ~executors:2 ~jobs:2 ~quota:8 ~max_sessions:4
      ~state_dir:(Filename.concat dir "state") ~socket:sock ()
  in
  let th = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Thread.join th;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
  @@ fun () ->
  let nl = (Suite.find circuit).Suite.build () in
  let pattern = String.make (Array.length (Netlist.inputs nl)) '0' in

  (* ---- 1. golden replay against a direct session ---- *)
  let c = Client.connect_unix sock in
  let t0 = Unix.gettimeofday () in
  let o =
    Client.open_session c ~circuit:(Protocol.Builtin circuit) ~pattern ()
  in
  let cold_s = Unix.gettimeofday () -. t0 in
  check (o.Client.status = Protocol.Cold) "first open is cold (%.1f ms)"
    (cold_s *. 1e3);
  let direct =
    Incremental.create
      (Library.create ~device:Params.d25
         ~temp:(Physics.celsius_to_kelvin 25.0) ())
      nl
      (Logic.vector_of_string pattern)
  in
  let batches = golden_batches nl in
  let mid_ck = ref None in
  List.iteri
    (fun i batch ->
      ignore (Client.apply_batch c ~session:o.Client.session batch);
      Incremental.apply_batch direct (List.map Protocol.edit_to_incremental batch);
      if i = 3 then
        mid_ck :=
          Some
            ( Client.checkpoint c ~session:o.Client.session,
              Incremental.checkpoint direct );
      let loaded, baseline = Client.query c ~session:o.Client.session () in
      if
        not
          (Gate_kit.eq_components loaded (Incremental.totals direct)
          && Gate_kit.eq_components baseline
               (Incremental.baseline_totals direct))
      then begin
        Printf.eprintf "serve_check: FAIL batch %d diverged from direct session\n" i;
        exit 1
      end)
    batches;
  check true "%d golden batches bit-identical to the direct session"
    (List.length batches);
  (match !mid_ck with
   | None -> assert false
   | Some (wire_ck, direct_ck) ->
     Client.rollback c ~session:o.Client.session ~checkpoint:wire_ck;
     Incremental.rollback direct direct_ck;
     let loaded, _ = Client.query c ~session:o.Client.session ~refresh:true () in
     Incremental.refresh direct;
     check
       (Gate_kit.eq_components loaded (Incremental.totals direct))
       "rollback to mid-script checkpoint bit-identical");

  (* ---- 2. two concurrent clients on one warm session ---- *)
  let n = Netlist.gate_count nl in
  let sizes who = List.init 24 (fun k -> ((who + 2 * k * 17) mod n, 1.0 +. (float_of_int ((who + k) mod 5) /. 8.0))) in
  (* the two gate sets are disjoint: evens for client A, odds for client B *)
  let edits_a = List.map (fun (g, f) -> (g - (g mod 2), f)) (sizes 0) in
  let edits_b = List.map (fun (g, f) -> (g - (g mod 2) + 1, f)) (sizes 1) in
  let worker edits () =
    let cw = Client.connect_unix sock in
    Fun.protect ~finally:(fun () -> Client.close cw) @@ fun () ->
    let ow = Client.open_session cw ~circuit:(Protocol.Builtin circuit) () in
    assert (ow.Client.status = Protocol.Warm);
    List.iter
      (fun (g, f) ->
        ignore
          (Client.apply_batch cw ~session:ow.Client.session
             [ Protocol.Resize (g, f) ]))
      edits
  in
  let ta = Thread.create (worker edits_a) () in
  let tb = Thread.create (worker edits_b) () in
  Thread.join ta;
  Thread.join tb;
  (* disjoint resizes commute state-wise, and a refreshed query is a
     function of state alone — so any interleaving must equal one
     sequential direct replay *)
  Incremental.apply_batch direct
    (List.map (fun (g, f) -> Edit.Resize (g, f)) (edits_a @ edits_b));
  Incremental.refresh direct;
  let loaded, _ = Client.query c ~session:o.Client.session ~refresh:true () in
  check
    (Gate_kit.eq_components loaded (Incremental.totals direct))
    "two concurrent clients landed bit-identical to a sequential session";

  (* ---- 3. warm re-open speedup ---- *)
  let c2 = Client.connect_unix sock in
  let t0 = Unix.gettimeofday () in
  let o2 = Client.open_session c2 ~circuit:(Protocol.Builtin circuit) () in
  let warm_s = Unix.gettimeofday () -. t0 in
  Client.close c2;
  check (o2.Client.status = Protocol.Warm) "re-open attaches warm";
  check (o2.Client.session = o.Client.session) "same session id";
  check
    (cold_s >= 10.0 *. warm_s)
    "warm re-open %.2f ms is >= 10x faster than cold %.1f ms" (warm_s *. 1e3)
    (cold_s *. 1e3);

  (* ---- 4. labeled latency series in the metrics snapshot ---- *)
  let snap = (Client.metrics_snapshot c).Client.snapshot in
  let request_count op =
    List.fold_left
      (fun acc (name, (h : Telemetry.Snapshot.hist)) ->
        match Telemetry.Snapshot.base_and_labels snap name with
        | "serve.request_us", labels when List.assoc_opt "op" labels = Some op ->
          acc + h.Telemetry.Snapshot.count
        | _ -> acc)
      0
      (Telemetry.Snapshot.histogram_entries snap)
  in
  List.iter
    (fun op ->
      let count = request_count op in
      check (count > 0) "serve.request_us{op=%s} has %d observations" op count)
    [ "open"; "apply"; "query" ];

  Client.close_session c ~session:o.Client.session;
  Client.close c;
  Printf.printf "serve_check: all checks passed\n%!"
