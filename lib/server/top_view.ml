(* The model behind [leakctl top]: turn two successive telemetry snapshots
   into rate / percentile / pressure rows. Pure — no sockets, no clocks —
   so the renderer, the tests, and the obs CI gate all exercise the same
   arithmetic. *)

module Tm = Leakage_telemetry.Telemetry

type op_row = {
  op : string;
  count : int; (* requests in the window *)
  rate : float; (* requests / second *)
  p50_us : float;
  p99_us : float;
}

type tenant_row = {
  tenant : string;
  inflight : float;
  quota : float; (* 0 when the daemon did not publish one *)
  window_requests : int;
}

type t = {
  interval_s : float;
  uptime_s : float;
  version : string;
  request_rate : float;
  rejected_rate : float;
  ops : op_row list;
  tenants : tenant_row list;
  sessions_live : float;
  session_churn : (string * int) list; (* opened/attached/... in window *)
  runtime : (string * float) list; (* runtime.* gauges *)
}

(* merge the hist deltas of every serve.request_us{op=...} member with the
   given op label, whatever other labels ride along *)
let merged_hists diff ~base ~group_label =
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (name, (h : Tm.Snapshot.hist)) ->
      let b, labels = Tm.Snapshot.base_and_labels diff name in
      if b = base then
        match List.assoc_opt group_label labels with
        | None -> ()
        | Some key ->
          let acc =
            match Hashtbl.find_opt groups key with
            | Some acc -> acc
            | None ->
              order := key :: !order;
              let acc =
                {
                  Tm.Snapshot.count = 0;
                  sum = 0.0;
                  min = infinity;
                  max = neg_infinity;
                  buckets = Array.make Tm.Snapshot.n_buckets 0;
                }
              in
              Hashtbl.replace groups key acc;
              acc
          in
          let merged =
            {
              Tm.Snapshot.count = acc.count + h.count;
              sum = acc.sum +. h.sum;
              min = Float.min acc.min h.min;
              max = Float.max acc.max h.max;
              buckets = Array.mapi (fun i n -> n + h.buckets.(i)) acc.buckets;
            }
          in
          Hashtbl.replace groups key merged)
    (Tm.Snapshot.histogram_entries diff);
  List.rev_map (fun key -> (key, Hashtbl.find groups key)) !order

let op_rows diff interval =
  List.filter_map
    (fun (op, (h : Tm.Snapshot.hist)) ->
      if h.count = 0 then None
      else
        Some
          {
            op;
            count = h.count;
            rate = float_of_int h.count /. interval;
            p50_us = Tm.Snapshot.quantile h 0.5;
            p99_us = Tm.Snapshot.quantile h 0.99;
          })
    (merged_hists diff ~base:"serve.request_us" ~group_label:"op")
  |> List.sort (fun a b -> compare (b.count, a.op) (a.count, b.op))

let tenant_rows snap diff =
  let quota = Tm.Snapshot.gauge_value snap "serve.quota" in
  let inflight =
    List.filter_map
      (fun (name, v) ->
        let base, labels = Tm.Snapshot.base_and_labels snap name in
        if base = "serve.tenant_inflight" then
          Option.map (fun t -> (t, v)) (List.assoc_opt "tenant" labels)
        else None)
      (Tm.Snapshot.gauge_entries snap)
  in
  let window =
    merged_hists diff ~base:"serve.request_us" ~group_label:"tenant"
  in
  let tenants =
    List.sort_uniq compare
      (List.map fst inflight @ List.map fst window)
  in
  List.map
    (fun tenant ->
      {
        tenant;
        inflight = Option.value ~default:0.0 (List.assoc_opt tenant inflight);
        quota;
        window_requests =
          (match List.assoc_opt tenant window with
           | Some (h : Tm.Snapshot.hist) -> h.count
           | None -> 0);
      })
    tenants

let churn_counters =
  [
    ("opened", "serve.sessions_opened");
    ("attached", "serve.sessions_attached");
    ("restored", "serve.sessions_restored");
    ("evicted", "serve.sessions_evicted");
    ("closed", "serve.sessions_closed");
  ]

let make ~uptime_s ~version ~newer ~older =
  let interval =
    Float.max 1e-3 (Tm.Snapshot.taken_at newer -. Tm.Snapshot.taken_at older)
  in
  let diff = Tm.Snapshot.diff ~newer ~older in
  let rate name = float_of_int (Tm.Snapshot.counter_total diff name) /. interval in
  {
    interval_s = interval;
    uptime_s;
    version;
    request_rate = rate "serve.requests";
    rejected_rate = rate "serve.rejected";
    ops = op_rows diff interval;
    tenants = tenant_rows newer diff;
    sessions_live = Tm.Snapshot.gauge_value newer "serve.sessions_live";
    session_churn =
      List.filter_map
        (fun (label, name) ->
          match Tm.Snapshot.counter_total diff name with
          | 0 -> None
          | n -> Some (label, n))
        churn_counters;
    runtime =
      List.filter
        (fun (name, _) ->
          String.length name >= 8 && String.sub name 0 8 = "runtime.")
        (Tm.Snapshot.gauge_entries newer);
  }

(* ------------------------------------------------------------ rendering *)

let fmt_rate r =
  if r >= 100.0 then Printf.sprintf "%.0f/s" r
  else if r >= 1.0 then Printf.sprintf "%.1f/s" r
  else Printf.sprintf "%.2f/s" r

let fmt_us us =
  if us >= 1e6 then Printf.sprintf "%.2fs" (us /. 1e6)
  else if us >= 1e3 then Printf.sprintf "%.1fms" (us /. 1e3)
  else Printf.sprintf "%.0fus" us

let fmt_bytes b =
  if b >= 1073741824.0 then Printf.sprintf "%.2fGiB" (b /. 1073741824.0)
  else if b >= 1048576.0 then Printf.sprintf "%.1fMiB" (b /. 1048576.0)
  else if b >= 1024.0 then Printf.sprintf "%.0fKiB" (b /. 1024.0)
  else Printf.sprintf "%.0fB" b

let pp ppf t =
  Format.fprintf ppf "leakctl top — daemon %s, up %.0fs, window %.1fs@."
    t.version t.uptime_s t.interval_s;
  Format.fprintf ppf "requests %s  rejected %s  sessions live %.0f"
    (fmt_rate t.request_rate) (fmt_rate t.rejected_rate) t.sessions_live;
  if t.session_churn <> [] then
    Format.fprintf ppf "  churn [%s]"
      (String.concat ", "
         (List.map (fun (l, n) -> Printf.sprintf "%s %d" l n) t.session_churn));
  Format.fprintf ppf "@.@.";
  (match t.ops with
   | [] -> Format.fprintf ppf "  (no requests in this window)@."
   | ops ->
     Format.fprintf ppf "  %-18s %8s %10s %10s %10s@." "OP" "COUNT" "RATE"
       "P50" "P99";
     List.iter
       (fun r ->
         Format.fprintf ppf "  %-18s %8d %10s %10s %10s@." r.op r.count
           (fmt_rate r.rate) (fmt_us r.p50_us) (fmt_us r.p99_us))
       ops);
  (match t.tenants with
   | [] -> ()
   | tenants ->
     Format.fprintf ppf "@.  %-18s %10s %10s %10s@." "TENANT" "INFLIGHT"
       "QUOTA" "REQS";
     List.iter
       (fun r ->
         Format.fprintf ppf "  %-18s %10.0f %10s %10d@." r.tenant r.inflight
           (if r.quota > 0.0 then Printf.sprintf "%.0f" r.quota else "-")
           r.window_requests)
       tenants);
  if t.runtime <> [] then begin
    Format.fprintf ppf "@.  runtime:";
    List.iter
      (fun (name, v) ->
        let short =
          String.sub name 8 (String.length name - 8)
        in
        let shown =
          if short = "rss_bytes" then fmt_bytes v
          else if Float.is_integer v && Float.abs v < 1e15 then
            Printf.sprintf "%.0f" v
          else Printf.sprintf "%.3g" v
        in
        Format.fprintf ppf " %s=%s" short shown)
      t.runtime;
    Format.fprintf ppf "@."
  end
