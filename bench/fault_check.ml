(* fault_check: fault-injection gate for the serve subsystem.

   Two daemons run as forked children, sharing a --peer-dir; a failover
   client replays a deterministic edit workload on s838 and, at seeded
   random batch indices, the harness raw-sends the next batch to the
   serving daemon WITHOUT reading the reply (a request is in flight at the
   moment of death), SIGKILLs that daemon, and respawns it over a fresh
   state dir. The run fails unless:

   1. the client's retry/failover policy rides through every kill with zero
      surfaced errors, each re-open adopting the peer-shipped checkpoint
      (status Restored) on whichever daemon answers;
   2. the final refreshed loaded/baseline totals are bit-identical to one
      unfaulted sequential replay in a direct Incremental session — i.e. a
      kill loses at most the in-flight batch, and replaying it converges
      because every protocol edit sets absolute state;
   3. a separate rate-limited daemon (token buckets on) saturates under a
      query burst: the client sees Over_quota, honors the retry-after
      hints, and still completes every request with zero failures.

   The kill-point seed and the chosen kill points are printed first, so any
   run can be replayed deterministically with -seed. *)

module Params = Leakage_device.Params
module Physics = Leakage_device.Physics
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Library = Leakage_core.Library
module Incremental = Leakage_incremental.Incremental
module Suite = Leakage_benchmarks.Suite
module Telemetry = Leakage_telemetry.Telemetry
module Wire = Leakage_server.Wire
module Protocol = Leakage_server.Protocol
module Server = Leakage_server.Server
module Client = Leakage_server.Client

let circuit = "s838"
let n_batches = 12

let check cond fmt = Gate_kit.check "fault_check" cond fmt

(* same deterministic-workload idea as serve_check, over more batches *)
let workload_batches nl =
  let n = Netlist.gate_count nl in
  let n_in = Array.length (Netlist.inputs nl) in
  List.init n_batches (fun b ->
      List.init 4 (fun k ->
          let pick = (b * 41 + k * 17 + 7) mod n in
          match k with
          | 0 ->
            Protocol.Resize (pick, 1.0 +. (float_of_int ((b + k) mod 6) /. 5.0))
          | 1 -> Protocol.Set_input ((b * 13 + 2) mod n_in, (b + k) mod 2 = 0)
          | _ ->
            let rec arity2 i =
              if Netlist.gate_arity nl i = 2 then i
              else arity2 ((i + 1) mod n)
            in
            let g = arity2 pick in
            Protocol.Retype (g, if (b + k) mod 2 = 0 then "nand2" else "nor2")))

(* ------------------------------------------------------ forked daemons *)

type daemon = {
  sock : string;
  mutable state_dir : string;
  mutable pid : int;
  mutable gen : int;
}

let spawn ~sock ~state_dir ~peer_dir ?tenant_rate ?tenant_burst () =
  match Unix.fork () with
  | 0 ->
    (* the daemon child: a single executor keeps it lightweight; it dies
       only by signal or parent request, and skips the parent's at_exit
       cleanup when it does *)
    (try
       Telemetry.set_enabled true;
       Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
       let server =
         Server.create ~executors:1 ~quota:8 ~max_sessions:4
           ~state_dir ~peer_dir ?tenant_rate ?tenant_burst ~socket:sock ()
       in
       Server.run server;
       Unix._exit 0
     with _ -> Unix._exit 1)
  | pid -> pid

let wait_ready sock =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then
        failwith ("daemon on " ^ sock ^ " did not come up");
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let sigkill d =
  Unix.kill d.pid Sys.sigkill;
  ignore (Unix.waitpid [] d.pid)

(* Put a request in flight at the instant of death: write a whole Apply
   frame to the victim on a throwaway connection and never read the reply.
   Depending on where the SIGKILL lands the daemon has seen none, some, or
   all of it — every case must converge after failover replay. *)
let raw_send_apply sock ~session ~edits =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_UNIX sock);
     Wire.write_frame fd
       (Protocol.encode_request (Protocol.Apply_batch { session; edits }))
   with Unix.Unix_error _ -> ());
  fd

(* ----------------------------------------------------------------- run *)

let run ~seed =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "leak-fault-check-%d" (Unix.getpid ()))
  in
  Unix.mkdir root 0o755;
  let peer_dir = Filename.concat root "peer" in
  let fresh_state =
    let n = ref 0 in
    fun tag ->
      incr n;
      Filename.concat root (Printf.sprintf "state-%s-%d" tag !n)
  in
  let daemons =
    [|
      { sock = Filename.concat root "a.sock"; state_dir = ""; pid = 0; gen = 0 };
      { sock = Filename.concat root "b.sock"; state_dir = ""; pid = 0; gen = 0 };
    |]
  in
  let live = ref [] in
  let start tag d =
    d.state_dir <- fresh_state tag;
    d.pid <- spawn ~sock:d.sock ~state_dir:d.state_dir ~peer_dir ();
    d.gen <- d.gen + 1;
    live := d.pid :: !live;
    wait_ready d.sock
  in
  (* at_exit, not Fun.protect: a failed check exits 1 without unwinding,
     and the daemons must not outlive the gate *)
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))));
  start "a" daemons.(0);
  start "b" daemons.(1);

  let nl = (Suite.find circuit).Suite.build () in
  let pattern = String.make (Array.length (Netlist.inputs nl)) '0' in
  let batches = workload_batches nl in

  (* >= 3 kill points at seeded random batch indices (never before the
     first batch, so there is always shipped state to adopt) *)
  let rng = Random.State.make [| seed; 0xfa171 |] in
  let n_kills = 3 + Random.State.int rng 2 in
  let kill_points =
    let rec draw acc =
      if List.length acc >= n_kills then List.sort compare acc
      else
        let p = 1 + Random.State.int rng (n_batches - 1) in
        draw (if List.mem p acc then acc else p :: acc)
    in
    draw []
  in
  Printf.printf "fault_check: seed %d, killing before batches [%s]\n%!" seed
    (String.concat "; " (List.map string_of_int kill_points));
  check (List.length kill_points >= 3) "%d kill points >= 3"
    (List.length kill_points);

  let policy =
    {
      Client.retries = 8;
      backoff_ms = 15.0;
      max_backoff_ms = 400.0;
      timeout_ms = Some 10_000.0;
      jitter = 0.25;
    }
  in
  let c =
    Client.connect ~policy ~seed
      [ Client.Unix_path daemons.(0).sock; Client.Unix_path daemons.(1).sock ]
  in
  let s =
    Client.Failover.open_session c ~circuit:(Protocol.Builtin circuit)
      ~pattern ()
  in
  let direct =
    Incremental.create
      (Library.create ~device:Params.d25
         ~temp:(Physics.celsius_to_kelvin 25.0) ())
      nl
      (Logic.vector_of_string pattern)
  in
  let adoptions = ref 0 in
  let client_failures = ref 0 in
  List.iteri
    (fun i batch ->
      if List.mem i kill_points then begin
        (* the victim is whichever daemon the client is attached to *)
        let victim =
          match Client.current_endpoint c with
          | Some (Client.Unix_path p) when p = daemons.(1).sock -> daemons.(1)
          | _ -> daemons.(0)
        in
        let raw_fd =
          raw_send_apply victim.sock ~session:(Client.Failover.session_id s)
            ~edits:batch
        in
        sigkill victim;
        (try Unix.close raw_fd with Unix.Unix_error _ -> ());
        live := List.filter (fun p -> p <> victim.pid) !live;
        (* respawn over a FRESH state dir: anything the successor — or the
           reborn victim — restores can only have come through peer_dir *)
        let tag = if victim == daemons.(0) then "a" else "b" in
        let before = Client.Failover.reopens s in
        start tag victim;
        (try Client.Failover.apply s batch with _ -> incr client_failures);
        if
          Client.Failover.reopens s > before
          && Client.Failover.status s = Protocol.Restored
        then incr adoptions
      end
      else begin
        try Client.Failover.apply s batch with _ -> incr client_failures
      end;
      Incremental.apply_batch direct
        (List.map Protocol.edit_to_incremental batch))
    batches;
  check (!client_failures = 0) "workload survived with zero client failures";
  check
    (Client.Failover.reopens s >= n_kills)
    "every kill forced a failover re-open (%d reopens >= %d kills)"
    (Client.Failover.reopens s) n_kills;
  check
    (!adoptions = n_kills)
    "every failover adopted a peer-shipped checkpoint (%d of %d)" !adoptions
    n_kills;

  (* a refreshed query is a function of session state alone, so faulted
     serve state and the unfaulted direct replay must agree bit-for-bit *)
  let loaded, baseline =
    match Client.Failover.query s ~refresh:true () with
    | v -> v
    | exception e ->
      Gate_kit.fail "fault_check" "final query: %s" (Printexc.to_string e)
  in
  Incremental.refresh direct;
  let bit_identical =
    Gate_kit.eq_components loaded (Incremental.totals direct)
    && Gate_kit.eq_components baseline
         (Incremental.baseline_totals direct)
  in
  check bit_identical
    "final totals bit-identical to the unfaulted sequential replay";

  (* ---- token-bucket saturation on a rate-limited daemon ---- *)
  let rated =
    { sock = Filename.concat root "c.sock"; state_dir = ""; pid = 0; gen = 0 }
  in
  rated.state_dir <- fresh_state "c";
  rated.pid <-
    spawn ~sock:rated.sock ~state_dir:rated.state_dir ~peer_dir
      ~tenant_rate:50.0 ~tenant_burst:4.0 ();
  live := rated.pid :: !live;
  wait_ready rated.sock;
  let cq =
    Client.connect
      ~policy:
        {
          Client.retries = 12;
          backoff_ms = 5.0;
          max_backoff_ms = 250.0;
          timeout_ms = Some 10_000.0;
          jitter = 0.25;
        }
      ~seed:(seed + 1)
      [ Client.Unix_path rated.sock ]
  in
  let oq =
    Client.open_session cq ~circuit:(Protocol.Builtin circuit) ~pattern ()
  in
  let sat_failures = ref 0 in
  for _ = 1 to 40 do
    match Client.query cq ~session:oq.Client.session () with
    | _ -> ()
    | exception _ -> incr sat_failures
  done;
  let st = Client.stats cq in
  check (!sat_failures = 0)
    "saturation burst completed with zero client-visible failures";
  check
    (st.Client.over_quota_waits > 0)
    "token bucket pushed back (%d over-quota backoffs honored)"
    st.Client.over_quota_waits;
  Client.close cq;
  Client.close c;
  Printf.printf "fault_check: all checks passed\n%!"

let () =
  let seed = ref 42 in
  Arg.parse
    [ ("-seed", Arg.Set_int seed, "N kill-point seed (default 42)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fault-injection gate for the serve subsystem";
  run ~seed:!seed
