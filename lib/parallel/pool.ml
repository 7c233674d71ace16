(* A small fixed pool of worker domains. No external dependencies: OCaml 5's
   stdlib Domain/Mutex/Condition/Atomic are enough for the fork-join shapes
   this project needs (fan out N independent items, reduce in index order).

   Work distribution is a single shared counter claimed with fetch_and_add;
   the mutex/condition pair is only used to park idle workers between
   regions, never on the per-item path. *)

type job = {
  total : int;
  body : int -> unit;
  next : int Atomic.t; (* next unclaimed item index *)
  left : int Atomic.t; (* items not yet finished *)
  mutable error : (int * exn * Printexc.raw_backtrace) option;
      (* lowest-indexed failure, kept under the pool mutex *)
}

type t = {
  n_lanes : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable epoch : int; (* bumped per submitted job, wakes workers *)
  mutable stop : bool;
  mutable busy : bool; (* a region is in flight: nested runs go inline *)
  mutable domains : unit Domain.t array;
}

module Tm = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace

let m_regions = Tm.counter "pool.regions"
let m_inline = Tm.counter "pool.inline_regions"
let m_items = Tm.counter "pool.items"
let m_parks = Tm.counter "pool.parks"
let m_wakes = Tm.counter "pool.wakes"

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n > 0 -> Some n
  | _ -> None

let clamp_jobs n = max 1 (min 128 n)

let default_jobs () =
  let n =
    match Option.bind (Sys.getenv_opt "LEAKCTL_JOBS") parse_jobs with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  clamp_jobs n

let record_failure t job index exn bt =
  Mutex.lock t.mutex;
  (match job.error with
  | Some (i, _, _) when i <= index -> ()
  | _ -> job.error <- Some (index, exn, bt));
  Mutex.unlock t.mutex

(* Claim and run items until the job's counter is exhausted. Called from
   worker domains and from the submitting domain alike. *)
let drain t job =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add job.next 1 in
    if i >= job.total then continue := false
    else begin
      Tm.incr m_items;
      (try job.body i
       with exn ->
         let bt = Printexc.get_raw_backtrace () in
         record_failure t job i exn bt);
      if Atomic.fetch_and_add job.left (-1) = 1 then begin
        (* last item: wake the submitter *)
        Mutex.lock t.mutex;
        Condition.broadcast t.work_done;
        Mutex.unlock t.mutex
      end
    end
  done

let worker t () =
  let seen_epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while (not t.stop) && t.epoch = !seen_epoch do
      Tm.incr m_parks;
      Condition.wait t.work_ready t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      seen_epoch := t.epoch;
      let job = t.job in
      Mutex.unlock t.mutex;
      Tm.incr m_wakes;
      match job with
      | None -> ()
      | Some job -> Trace.with_span ~cat:"pool" "drain" (fun () -> drain t job)
    end
  done

let create ?jobs () =
  let n = match jobs with Some n -> n | None -> default_jobs () in
  if n < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      n_lanes = n;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      epoch = 0;
      stop = false;
      busy = false;
      domains = [||];
    }
  in
  t.domains <- Array.init (n - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  let was_stopped = t.stop in
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  if not was_stopped then begin
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_seq n body =
  for i = 0 to n - 1 do
    body i
  done

let run ?pool n body =
  if n <= 0 then ()
  else
    match pool with
    | None -> run_seq n body
    | Some t ->
        let inline =
          (* Single-element regions gain nothing from waking workers. A
             stopped pool has no workers left to wake: regions after
             [shutdown] always take this inline path, so running on a
             shut-down pool is raise-free by construction, not by luck. *)
          n = 1 || t.n_lanes = 1
          ||
          (Mutex.lock t.mutex;
           let taken = t.busy || t.stop in
           if not taken then t.busy <- true;
           Mutex.unlock t.mutex;
           taken)
        in
        if inline then begin
          Tm.incr m_inline;
          run_seq n body
        end
        else begin
          Tm.incr m_regions;
          Trace.with_span ~cat:"pool" "region"
            ~args:[ ("items", string_of_int n) ]
          @@ fun () ->
          let job =
            {
              total = n;
              body;
              next = Atomic.make 0;
              left = Atomic.make n;
              error = None;
            }
          in
          Mutex.lock t.mutex;
          t.job <- Some job;
          t.epoch <- t.epoch + 1;
          Condition.broadcast t.work_ready;
          Mutex.unlock t.mutex;
          (* The submitting domain is a lane too. *)
          drain t job;
          Mutex.lock t.mutex;
          while Atomic.get job.left > 0 do
            Condition.wait t.work_done t.mutex
          done;
          t.job <- None;
          t.busy <- false;
          let error = job.error in
          Mutex.unlock t.mutex;
          match error with
          | None -> ()
          | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
        end

let map ?pool n f =
  if n <= 0 then [||]
  else begin
    let slots = Array.make n None in
    run ?pool n (fun i -> slots.(i) <- Some (f i));
    Array.map
      (function Some v -> v | None -> assert false (* run completed all *))
      slots
  end

let map_array ?pool f a = map ?pool (Array.length a) (fun i -> f a.(i))

let map_chunked ?pool ~chunk n f =
  if chunk < 1 then invalid_arg "Pool.map_chunked: chunk must be >= 1";
  let n_chunks = (n + chunk - 1) / chunk in
  map ?pool n_chunks (fun c ->
      let lo = c * chunk in
      let hi = min n (lo + chunk) in
      f ~lo ~hi)
