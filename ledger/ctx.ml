(* Run context shared by the four workloads: options, the failure and
   checksum accounting behind the result line, per-layer values, spans
   around calls into the library, and process plumbing. *)

module Telemetry = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace
module Snapshot = Telemetry.Snapshot

type t = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  work_dir : string;  (** relative to the checkout root, removed at exit *)
  mutable attempted : int;
  mutable failed : int;
  mutable checksum : Checksum.t;
  mutable setups : float list;
  mutable passes : float list;
  mutable rss_kb : int;
      (** peak RSS after set-up and the first pass, so that it does not
          depend on how many passes fit the run *)
  mutable daemon_rss_kb : int;
  layer : (string, float) Hashtbl.t;
}

let create ~workload ~seed ~seconds ~traced ~work_dir =
  {
    workload;
    seed;
    seconds;
    traced;
    work_dir;
    attempted = 0;
    failed = 0;
    checksum = Checksum.empty;
    setups = [];
    passes = [];
    rss_kb = 0;
    daemon_rss_kb = 0;
    layer = Hashtbl.create 64;
  }

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let path ctx name = Filename.concat ctx.work_dir name

(* ------------------------------------------------------------ accounting *)

let note fmt = Printf.ksprintf (fun s -> Printf.printf "ledger: %s\n%!" s) fmt

(* One checked output: counts as attempted, and as failed when [ok] is
   false. *)
let check ctx ok fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.attempted <- ctx.attempted + 1;
      if not ok then begin
        ctx.failed <- ctx.failed + 1;
        Printf.eprintf "ledger: FAILED %s\n%!" msg
      end)
    fmt

(* One operation: attempted, and failed if it raises ([None] then). *)
let attempt ctx what f =
  ctx.attempted <- ctx.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    ctx.failed <- ctx.failed + 1;
    Printf.eprintf "ledger: FAILED %s: %s\n%!" what (Printexc.to_string e);
    None

let set ctx name v = Hashtbl.replace ctx.layer name v

(* Peak resident set (VmHWM) of a process in kB; 0 when unavailable. *)
let peak_rss_kb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                Fun.id
            else scan ()
        in
        scan ())

(* ------------------------------------------------------ host speed *)

(* The host's speed drifts by about 15% over a few seconds (measured on the
   shared 2-core reference host: a fixed register-only loop and the
   library's own characterization slow down together, correlation 0.76
   per 0.1 s, when both run on the same thread). So the ledger times that
   loop on the working thread itself, at most every 50 ms, at the
   boundaries of the calls it makes into the library. The end-to-end
   times are scaled towards the reference speed by [factor]. Per pass the
   factor is too noisy; per run it takes out the slow phases that last
   minutes, which moved the same ingest pass between 11 and 16 s. A probe
   on a thread of its own does not work: it lands on the other core. *)
module Probe = struct
  let reference_burst_s = 0.22e-3
  let every_s = 0.05
  let samples : (float * float) list ref = ref []  (* (time, burst), newest first *)
  let lock = Mutex.create ()
  let last = ref 0.0

  let burst () =
    let t0 = now () in
    let s = ref 0 in
    for i = 1 to 250_000 do
      s := !s lxor (i * 2654435761)
    done;
    ignore (Sys.opaque_identity !s);
    now () -. t0

  let tick () =
    let t = now () in
    if t -. !last >= every_s then begin
      last := t;
      let b = burst () in
      Mutex.lock lock;
      samples := (t, b) :: !samples;
      Mutex.unlock lock
    end

  (* sqrt (reference / median burst over the whole run); 1 without
     bursts. The square root because in the host's slow phases the
     register-only loop slows more than the library's mixed work (1.7x
     against 1.3x for the cold Fig-12 flow): full scaling over-corrects
     and spread those runs wider than raw time (23% against 20% over ten
     seeds), the square root brought them to 11%. *)
  let factor () =
    Mutex.lock lock;
    let all = List.map snd !samples in
    Mutex.unlock lock;
    match all with [] -> 1.0 | _ -> sqrt (reference_burst_s /. Pctl.median all)
end

(* ---------------------------------------------------------------- spans *)

(* A span around one call into a layer's public functions (while tracing
   is off, a flag test), with a host-speed probe on either side. *)
let span layer name f =
  Probe.tick ();
  let r = Trace.with_span ~cat:(Spans.ledger_prefix ^ layer) name f in
  Probe.tick ();
  r

let start_tracing () =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Trace.start ()

(* Counter totals over a window, read through the typed snapshot API. *)
let counter d name = float_of_int (Snapshot.counter_total d name)

let hist_mean d name =
  match Snapshot.histogram_stats d name with
  | Some h when h.Snapshot.count > 0 -> h.Snapshot.sum /. float_of_int h.Snapshot.count
  | _ -> 0.0

(* The counters every workload reports from its timed window, so the
   zero predictions can be checked on all of them. *)
let common_counters =
  [ "dc.solves"; "dc.sweeps"; "dc.nonconverged"; "solver.iterations";
    "solver.nonconverged"; "rootfind.iterations"; "rootfind.nonconverged";
    "library.misses"; "library.hits"; "library.shared_hits";
    "estimator.gate_lookups"; "estimator.estimates"; "incr.edits";
    "incr.refreshes"; "pool.regions"; "pool.items"; "pool.inline_regions";
    "pool.parks"; "pool.wakes"; "serve.jobs_run"; "serve.rejected";
    "serve.sessions_attached"; "serve.sessions_restored";
    "serve.sessions_evicted"; "serve.checkpoints_written" ]

let record_counters ctx d =
  List.iter (fun name -> set ctx name (counter d name)) common_counters;
  let lookups =
    counter d "library.hits" +. counter d "library.shared_hits"
    +. counter d "library.misses"
  in
  set ctx "library.hit_ratio"
    (if lookups > 0.0 then
       (counter d "library.hits" +. counter d "library.shared_hits") /. lookups
     else 0.0);
  match Snapshot.histogram_stats d "library.build_us" with
  | Some h -> set ctx "library.build_ms" (h.Snapshot.sum /. 1000.0)
  | None -> ()

(* --------------------------------------------------------------- set-up *)

let n_setups = 3

(* Set up [n_setups] times, timing each, and keep the last state; [release]
   tears down each earlier one before the next begins. [setup i] gets the
   set-up index. *)
let setups ctx ~release setup =
  let rec go i =
    Gc.compact ();
    let s, dt = timed (fun () -> setup i) in
    ctx.setups <- ctx.setups @ [ dt ];
    if i + 1 < n_setups then begin
      release s;
      go (i + 1)
    end
    else s
  in
  go 0

(* --------------------------------------------------------------- passes *)

(* The timed section: untraced runs repeat [pass] until [seconds] have
   elapsed (at least once); traced runs make exactly [traced_passes]
   passes, so their work counts repeat exactly. Returns each pass's
   result. Each set-up and pass starts from a compacted heap, as a fresh
   process would, so earlier garbage does not bill its collection to
   the next one. *)
let run_passes ctx ~traced_passes pass =
  let t_end = now () +. ctx.seconds in
  let rec go i acc =
    let more = if ctx.traced then i < traced_passes else i = 0 || now () < t_end in
    if not more then List.rev acc
    else begin
      Gc.compact ();
      let r, dt = timed (fun () -> pass i) in
      ctx.passes <- ctx.passes @ [ dt ];
      if i = 0 then ctx.rss_kb <- peak_rss_kb "self";
      go (i + 1) (r :: acc)
    end
  in
  go 0 []

(* [run_passes] with the traced run's bookkeeping: one untraced pass first
   (the baseline for the tracing overhead), then telemetry and tracing on
   for the traced passes. Returns the baseline pass's result (traced runs
   only), the timed passes' results, and the telemetry over the timed
   passes. *)
let timed_section ctx ~traced_passes pass =
  let baseline =
    if ctx.traced then begin
      Gc.compact ();
      Some (timed (fun () -> pass (-1)))
    end
    else None
  in
  if ctx.traced then start_tracing ();
  let before = Snapshot.take () in
  let results = run_passes ctx ~traced_passes pass in
  let d = Snapshot.diff ~newer:(Snapshot.take ()) ~older:before in
  (match baseline with
   | Some (_, b) ->
     set ctx "telemetry.overhead_pct" ((Pctl.median ctx.passes -. b) /. b *. 100.0)
   | None -> ());
  (Option.map fst baseline, results, d)

(* Every pass must reproduce the first pass's checksum; the first one is
   folded into the run's checksum. *)
let check_passes ctx sums =
  match sums with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i s ->
        check ctx (Int64.equal s first) "pass %d checksum %s differs from pass 0 %s"
          (i + 1) (Checksum.to_hex s) (Checksum.to_hex first))
      rest;
    ctx.checksum <- first

(* ---------------------------------------------------------- process info *)

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
