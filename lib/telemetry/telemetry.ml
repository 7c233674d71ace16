(* Process-global metric registry with per-domain shards.

   Registration (rare, module-init time) takes a mutex; recording (hot)
   touches only the calling domain's shard through Domain.DLS — one bounds
   check and one array store. Shards register themselves in a global list
   the first time a domain records anything, so a snapshot can walk and
   merge them without the domains' cooperation. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let now_us () = Unix.gettimeofday () *. 1e6

type counter = int
type histogram = int
type gauge = int

(* ------------------------------------------------------------- registry *)

let registry_mutex = Mutex.create ()

(* name tables; index = metric id *)
let counter_names : string array ref = ref [||]
let histogram_names : string array ref = ref [||]
let gauge_names : string array ref = ref [||]
let counter_ids : (string, int) Hashtbl.t = Hashtbl.create 32
let histogram_ids : (string, int) Hashtbl.t = Hashtbl.create 32
let gauge_ids : (string, int) Hashtbl.t = Hashtbl.create 32

(* full encoded name -> (base name, label pairs); labeled metrics only *)
let label_meta : (string, string * (string * string) list) Hashtbl.t =
  Hashtbl.create 32

let register ids names name =
  Mutex.lock registry_mutex;
  let id =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None ->
      let id = Array.length !names in
      names := Array.append !names [| name |];
      Hashtbl.replace ids name id;
      id
  in
  Mutex.unlock registry_mutex;
  id

let counter name = register counter_ids counter_names name
let histogram name = register histogram_ids histogram_names name
let gauge name = register gauge_ids gauge_names name

(* Prometheus-style escaping inside the canonical encoded name, so the
   full name both is unique per label set and round-trips to text. *)
let escape_label_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let encode_labels base labels =
  match labels with
  | [] -> base
  | _ ->
    let labels =
      List.sort (fun (a, _) (b, _) -> String.compare a b) labels
    in
    let b = Buffer.create 64 in
    Buffer.add_string b base;
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        Buffer.add_string b (escape_label_value v);
        Buffer.add_char b '"')
      labels;
    Buffer.add_char b '}';
    Buffer.contents b

let register_labeled ids names base labels =
  let full = encode_labels base labels in
  let id = register ids names full in
  if labels <> [] then begin
    Mutex.lock registry_mutex;
    if not (Hashtbl.mem label_meta full) then
      Hashtbl.replace label_meta full
        (base, List.sort (fun (a, _) (b, _) -> String.compare a b) labels);
    Mutex.unlock registry_mutex
  end;
  id

let counter_with base labels = register_labeled counter_ids counter_names base labels
let histogram_with base labels =
  register_labeled histogram_ids histogram_names base labels
let gauge_with base labels = register_labeled gauge_ids gauge_names base labels

(* --------------------------------------------------------------- shards *)

let n_buckets = 64

type shard = {
  domain_id : int;
  mutable counts : int array;      (* counter id -> count *)
  mutable h_count : int array;     (* histogram id -> observation count *)
  mutable h_sum : float array;
  mutable h_min : float array;
  mutable h_max : float array;
  mutable h_buckets : int array;   (* histogram id * n_buckets + bucket *)
  mutable g_base : float array;    (* gauge id -> last set value *)
  mutable g_stamp : int array;     (* gauge id -> global tick of that set *)
}

let all_shards : shard list ref = ref []

(* orders concurrent gauge sets across shards: the snapshot keeps the
   value with the highest stamp *)
let gauge_clock = Atomic.make 0

let fresh_shard () =
  let s =
    {
      domain_id = (Domain.self () :> int);
      counts = [||];
      h_count = [||];
      h_sum = [||];
      h_min = [||];
      h_max = [||];
      h_buckets = [||];
      g_base = [||];
      g_stamp = [||];
    }
  in
  Mutex.lock registry_mutex;
  all_shards := s :: !all_shards;
  Mutex.unlock registry_mutex;
  s

let shard_key : shard Domain.DLS.key = Domain.DLS.new_key fresh_shard

let grow_int a n = Array.append a (Array.make (n - Array.length a) 0)
let grow_float a n v = Array.append a (Array.make (n - Array.length a) v)

(* Only the owning domain grows its arrays; a concurrent snapshot may read
   the superseded array and miss the newest cells — benign, see the mli. *)
let counter_cells s id =
  if id >= Array.length s.counts then s.counts <- grow_int s.counts (id + 1);
  s.counts

let ensure_hist s id =
  if id >= Array.length s.h_count then begin
    let n = id + 1 in
    s.h_count <- grow_int s.h_count n;
    s.h_sum <- grow_float s.h_sum n 0.0;
    s.h_min <- grow_float s.h_min n infinity;
    s.h_max <- grow_float s.h_max n neg_infinity;
    s.h_buckets <- grow_int s.h_buckets (n * n_buckets)
  end

let ensure_gauge s id =
  if id >= Array.length s.g_base then begin
    let n = id + 1 in
    s.g_base <- grow_float s.g_base n 0.0;
    s.g_stamp <- grow_int s.g_stamp n
  end

let incr c =
  if Atomic.get enabled_flag then begin
    let s = Domain.DLS.get shard_key in
    let cells = counter_cells s c in
    cells.(c) <- cells.(c) + 1
  end

let add c n =
  if Atomic.get enabled_flag then begin
    let s = Domain.DLS.get shard_key in
    let cells = counter_cells s c in
    cells.(c) <- cells.(c) + n
  end

(* Clock steps and broken arithmetic must never corrupt metric state:
   non-finite or negative observations and non-finite gauge values are
   dropped and counted here instead. *)
let m_dropped = counter "telemetry.dropped_observations"

let drop_observation () =
  let s = Domain.DLS.get shard_key in
  let cells = counter_cells s m_dropped in
  cells.(m_dropped) <- cells.(m_dropped) + 1

(* bucket b holds v in (2^(b-1), 2^b]: frexp exponent, clamped *)
let bucket_of v =
  if v <= 1.0 then 0
  else
    let _, e = Float.frexp v in
    Stdlib.min (n_buckets - 1) e

let observe h v =
  if Atomic.get enabled_flag then begin
    (* [not (v >= 0)] also catches NaN *)
    if not (v >= 0.0) || v = infinity then drop_observation ()
    else begin
      let s = Domain.DLS.get shard_key in
      ensure_hist s h;
      s.h_count.(h) <- s.h_count.(h) + 1;
      s.h_sum.(h) <- s.h_sum.(h) +. v;
      if v < s.h_min.(h) then s.h_min.(h) <- v;
      if v > s.h_max.(h) then s.h_max.(h) <- v;
      let b = (h * n_buckets) + bucket_of v in
      s.h_buckets.(b) <- s.h_buckets.(b) + 1
    end
  end

let set_gauge g v =
  if Atomic.get enabled_flag then begin
    if not (Float.is_finite v) then drop_observation ()
    else begin
      let s = Domain.DLS.get shard_key in
      ensure_gauge s g;
      s.g_base.(g) <- v;
      s.g_stamp.(g) <- Atomic.fetch_and_add gauge_clock 1 + 1
    end
  end

let time h f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_us () in
    Fun.protect ~finally:(fun () -> observe h (now_us () -. t0)) f
  end

let reset () =
  Mutex.lock registry_mutex;
  let shards = !all_shards in
  Mutex.unlock registry_mutex;
  List.iter
    (fun s ->
      Array.fill s.counts 0 (Array.length s.counts) 0;
      Array.fill s.h_count 0 (Array.length s.h_count) 0;
      Array.fill s.h_sum 0 (Array.length s.h_sum) 0.0;
      Array.fill s.h_min 0 (Array.length s.h_min) infinity;
      Array.fill s.h_max 0 (Array.length s.h_max) neg_infinity;
      Array.fill s.h_buckets 0 (Array.length s.h_buckets) 0;
      Array.fill s.g_base 0 (Array.length s.g_base) 0.0;
      Array.fill s.g_stamp 0 (Array.length s.g_stamp) 0)
    shards

(* ------------------------------------------------------------- snapshot *)

module Snapshot = struct
  type hist = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : int array; (* length n_buckets *)
  }

  type t = {
    taken_at : float;
    counters : (string * int * (int * int) list) list;
        (* name, merged total, per-domain non-zero values *)
    gauges : (string * float) list; (* live gauges only *)
    histograms : (string * hist) list;
    meta : (string * (string * (string * string) list)) list;
        (* full name -> base name, sorted label pairs; labeled metrics only *)
  }

  let n_buckets = n_buckets

  let make ~taken_at ~counters ~gauges ~histograms ~meta =
    { taken_at; counters; gauges; histograms; meta }

  let take () =
    Mutex.lock registry_mutex;
    let cnames = Array.copy !counter_names in
    let hnames = Array.copy !histogram_names in
    let gnames = Array.copy !gauge_names in
    let shards = !all_shards in
    let meta =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) label_meta []
      |> List.sort compare
    in
    Mutex.unlock registry_mutex;
    let counters =
      Array.to_list
        (Array.mapi
           (fun id name ->
             let per =
               List.filter_map
                 (fun s ->
                   let v =
                     if id < Array.length s.counts then s.counts.(id) else 0
                   in
                   if v = 0 then None else Some (s.domain_id, v))
                 shards
               |> List.sort compare
             in
             (name, List.fold_left (fun acc (_, v) -> acc + v) 0 per, per))
           cnames)
    in
    let gauges =
      Array.to_list
        (Array.mapi
           (fun id name ->
             let value, stamp =
               List.fold_left
                 (fun (value, stamp) s ->
                   if id < Array.length s.g_base && s.g_stamp.(id) > stamp then
                     (s.g_base.(id), s.g_stamp.(id))
                   else (value, stamp))
                 (0.0, 0) shards
             in
             if stamp = 0 then None else Some (name, value))
           gnames)
      |> List.filter_map Fun.id
    in
    let histograms =
      Array.to_list
        (Array.mapi
           (fun id name ->
             let h =
               List.fold_left
                 (fun acc s ->
                   if id >= Array.length s.h_count || s.h_count.(id) = 0 then
                     acc
                   else begin
                     for b = 0 to n_buckets - 1 do
                       acc.buckets.(b) <-
                         acc.buckets.(b) + s.h_buckets.((id * n_buckets) + b)
                     done;
                     {
                       acc with
                       count = acc.count + s.h_count.(id);
                       sum = acc.sum +. s.h_sum.(id);
                       min = Float.min acc.min s.h_min.(id);
                       max = Float.max acc.max s.h_max.(id);
                     }
                   end)
                 { count = 0; sum = 0.0; min = infinity; max = neg_infinity;
                   buckets = Array.make n_buckets 0 }
                 shards
             in
             (name, h))
           hnames)
    in
    { taken_at = Unix.gettimeofday (); counters; gauges; histograms; meta }

  let taken_at t = t.taken_at
  let counter_entries t = t.counters
  let gauge_entries t = t.gauges
  let histogram_entries t = t.histograms
  let meta_entries t = t.meta

  let base_and_labels t name =
    match List.assoc_opt name t.meta with
    | Some (base, labels) -> (base, labels)
    | None -> (name, [])

  let counter_total t name =
    match List.find_opt (fun (n, _, _) -> n = name) t.counters with
    | Some (_, total, _) -> total
    | None -> 0

  let counter_by_domain t name =
    match List.find_opt (fun (n, _, _) -> n = name) t.counters with
    | Some (_, _, per) -> per
    | None -> []

  let gauge_value t name =
    match List.assoc_opt name t.gauges with Some v -> v | None -> 0.0

  let find_hist t name = List.find_opt (fun (n, _) -> n = name) t.histograms

  let histogram_stats t name = Option.map snd (find_hist t name)

  let histogram_count t name =
    match find_hist t name with Some (_, h) -> h.count | None -> 0

  let histogram_sum t name =
    match find_hist t name with Some (_, h) -> h.sum | None -> 0.0

  let is_empty t =
    List.for_all (fun (_, total, _) -> total = 0) t.counters
    && List.for_all (fun (_, h) -> h.count = 0) t.histograms
    && t.gauges = []

  (* upper edge of bucket [b]: 1 for bucket 0, else 2^b *)
  let bucket_upper b = if b <= 0 then 1.0 else Float.ldexp 1.0 b

  let quantile h q =
    if h.count <= 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target =
        Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.count)))
      in
      let rec walk b cum =
        if b >= n_buckets then h.max
        else
          let cum = cum + h.buckets.(b) in
          if cum >= target then bucket_upper b else walk (b + 1) cum
      in
      let v = walk 0 0 in
      (* the bucket edge can overshoot the true extremes; clamp for display *)
      if Float.is_finite h.min && Float.is_finite h.max then
        Float.max h.min (Float.min h.max v)
      else v
    end

  (* [diff ~newer ~older]: per-metric newer-minus-older with every count
     clamped at zero, so a counter reset (daemon restart between the two
     snapshots) yields zero rates instead of huge negative ones. *)
  let diff ~newer ~older =
    let counters =
      List.map
        (fun (name, total, per) ->
          let o_total = counter_total older name in
          let o_per = counter_by_domain older name in
          let d_per =
            List.filter_map
              (fun (d, v) ->
                let ov =
                  match List.assoc_opt d o_per with Some o -> o | None -> 0
                in
                let dv = Stdlib.max 0 (v - ov) in
                if dv = 0 then None else Some (d, dv))
              per
          in
          (name, Stdlib.max 0 (total - o_total), d_per))
        newer.counters
    in
    let histograms =
      List.map
        (fun (name, h) ->
          match find_hist older name with
          | None -> (name, h)
          | Some (_, o) ->
            let buckets =
              Array.init n_buckets (fun b ->
                  Stdlib.max 0 (h.buckets.(b) - o.buckets.(b)))
            in
            ( name,
              {
                count = Stdlib.max 0 (h.count - o.count);
                sum = Float.max 0.0 (h.sum -. o.sum);
                (* min/max cannot be un-merged; keep the newer envelope *)
                min = h.min;
                max = h.max;
                buckets;
              } ))
        newer.histograms
    in
    {
      taken_at = newer.taken_at;
      counters;
      gauges = newer.gauges; (* gauges are levels, not totals: keep newest *)
      histograms;
      meta = newer.meta;
    }

  let pp ppf t =
    let live_counters = List.filter (fun (_, v, _) -> v <> 0) t.counters in
    let live_hists = List.filter (fun (_, h) -> h.count > 0) t.histograms in
    if live_counters = [] && live_hists = [] && t.gauges = [] then
      Format.fprintf ppf "telemetry: no metrics recorded@."
    else begin
      if live_counters <> [] then begin
        Format.fprintf ppf "counters:@.";
        List.iter
          (fun (name, total, per) ->
            Format.fprintf ppf "  %-32s %12d" name total;
            (match per with
             | [] | [ _ ] -> ()
             | _ ->
               Format.fprintf ppf "   (%s)"
                 (String.concat ", "
                    (List.map
                       (fun (d, v) -> Printf.sprintf "d%d:%d" d v)
                       per)));
            Format.fprintf ppf "@.")
          live_counters
      end;
      if t.gauges <> [] then begin
        Format.fprintf ppf "gauges:@.";
        List.iter
          (fun (name, v) -> Format.fprintf ppf "  %-32s %14g@." name v)
          t.gauges
      end;
      if live_hists <> [] then begin
        Format.fprintf ppf "histograms:@.";
        List.iter
          (fun (name, h) ->
            Format.fprintf ppf
              "  %-32s count %8d  mean %12.2f  min %10.1f  max %10.1f@." name
              h.count
              (h.sum /. float_of_int h.count)
              h.min h.max)
          live_hists
      end
    end

  let to_json ?(meta = []) t =
    let buf = Buffer.create 1024 in
    let p fmt = Printf.bprintf buf fmt in
    let live_counters = List.filter (fun (_, v, _) -> v <> 0) t.counters in
    let live_hists = List.filter (fun (_, h) -> h.count > 0) t.histograms in
    let sep first = if !first then first := false else p ", " in
    p "{";
    (match meta with
     | [] -> ()
     | meta ->
       p "\"meta\": {";
       let f0 = ref true in
       List.iter
         (fun (k, raw_json) ->
           sep f0;
           p "\"%s\": %s" (Json.escape k) raw_json)
         meta;
       p "}, ");
    p "\"counters\": {";
    let first = ref true in
    List.iter
      (fun (name, total, _) ->
        sep first;
        p "\"%s\": %d" (Json.escape name) total)
      live_counters;
    p "}, \"counters_by_domain\": {";
    let first = ref true in
    List.iter
      (fun (name, _, per) ->
        sep first;
        p "\"%s\": {" (Json.escape name);
        let f2 = ref true in
        List.iter
          (fun (d, v) ->
            sep f2;
            p "\"%d\": %d" d v)
          per;
        p "}")
      live_counters;
    p "}, \"gauges\": {";
    let first = ref true in
    List.iter
      (fun (name, v) ->
        sep first;
        p "\"%s\": %s" (Json.escape name) (Json.number v))
      t.gauges;
    p "}, \"histograms\": {";
    let first = ref true in
    List.iter
      (fun (name, h) ->
        sep first;
        p "\"%s\": {\"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \
           \"buckets\": {"
          (Json.escape name) h.count (Json.number h.sum) (Json.number h.min)
          (Json.number h.max);
        let f2 = ref true in
        Array.iteri
          (fun b n ->
            if n > 0 then begin
              sep f2;
              p "\"%d\": %d" b n
            end)
          h.buckets;
        p "}}")
      live_hists;
    p "}}";
    Buffer.contents buf
end
