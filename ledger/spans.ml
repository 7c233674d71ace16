(* Span trees and per-layer self time.

   The traced run records its spans through the library's own [Trace]
   module: the ledger wraps every call it makes into a layer's public
   functions in a span of category ["ledger.<layer>"], next to the spans
   the library already emits. At the end the Chrome trace is read back,
   every span gets its parent (the innermost span on the same track that
   contains it), and a layer's self time is the sum over its spans of the
   span's duration minus the part of it covered by child spans. *)

type span = {
  name : string;
  layer : string;
  track : string;  (** domain id, plus the thread for client threads *)
  start : float;  (** µs *)
  stop : float;
  args : (string * string) list;
}

let ledger_prefix = "ledger."

(* Library span categories, mapped onto the layers the ledger reports. *)
let layer_of_cat cat =
  let p = String.length ledger_prefix in
  if String.length cat > p && String.sub cat 0 p = ledger_prefix then
    String.sub cat p (String.length cat - p)
  else
    match cat with
    | "library" | "loading" -> "library"
    | "core" -> "estimator"
    | "mc" -> "sensitivity"
    | "pool" -> "pool"
    | "incr" -> "incremental"
    | "serve" -> "server"
    | _ -> "other"

let of_trace (j : Json.t) =
  let events = Option.value (Json.member "traceEvents" j) ~default:(Json.Arr []) in
  List.filter_map
    (fun e ->
      let str k = Option.bind (Json.member k e) Json.to_str in
      let num k = Option.bind (Json.member k e) Json.to_num in
      match (str "ph", str "name", num "ts", num "dur", num "tid") with
      | Some "X", Some name, Some ts, Some dur, Some tid ->
        let args =
          match Json.member "args" e with
          | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
              kvs
          | _ -> []
        in
        let track =
          match List.assoc_opt "thread" args with
          | Some th -> Printf.sprintf "%.0f/%s" tid th
          | None -> Printf.sprintf "%.0f" tid
        in
        Some
          {
            name;
            layer = layer_of_cat (Option.value (str "cat") ~default:"");
            track;
            start = ts;
            stop = ts +. dur;
            args;
          }
      | _ -> None)
    (Json.to_list events)

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* [parents spans] gives each span's parent index (innermost containing
   span on the same track), for spans in the given array order. *)
let parents (spans : span array) =
  let n = Array.length spans in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j ->
      let a = spans.(i) and b = spans.(j) in
      match compare a.track b.track with
      | 0 -> (
        match Float.compare a.start b.start with
        | 0 -> Float.compare b.stop a.stop
        | c -> c)
      | c -> c)
    order;
  let parent = Array.make n None in
  let stack = ref [] in
  Array.iter
    (fun i ->
      let s = spans.(i) in
      let rec settle () =
        match !stack with
        | top :: rest ->
          let t = spans.(top) in
          if t.track <> s.track || t.stop < s.stop || t.stop <= s.start then begin
            stack := rest;
            settle ()
          end
        | [] -> ()
      in
      settle ();
      (match !stack with top :: _ -> parent.(i) <- Some top | [] -> ());
      stack := i :: !stack)
    order;
  parent

let self_times (spans : span array) =
  let parent = parents spans in
  let children = Array.make (Array.length spans) [] in
  Array.iteri
    (fun i p ->
      match p with
      | Some p -> children.(p) <- (spans.(i).start, spans.(i).stop) :: children.(p)
      | None -> ())
    parent;
  Array.mapi
    (fun i s ->
      s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop children.(i))
    spans

(* Total self time per layer, in ms, sorted by layer name. *)
let layer_self_ms spans =
  let spans = Array.of_list spans in
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let prev = Option.value (Hashtbl.find_opt tbl s.layer) ~default:0.0 in
      Hashtbl.replace tbl s.layer (prev +. (self.(i) /. 1000.0)))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
