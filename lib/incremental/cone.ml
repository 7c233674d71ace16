module Worklist = struct
  type t = {
    priority : int array;
    heap : int array;
    mutable size : int;
    queued : bool array;
  }

  let create ~priority =
    let n = Array.length priority in
    {
      priority;
      heap = Array.make (Stdlib.max n 1) 0;
      size = 0;
      queued = Array.make n false;
    }

  let less t a b = t.priority.(t.heap.(a)) < t.priority.(t.heap.(b))

  let swap t i j =
    let x = t.heap.(i) in
    t.heap.(i) <- t.heap.(j);
    t.heap.(j) <- x

  let push t id =
    if id < 0 || id >= Array.length t.queued then
      invalid_arg "Cone.Worklist.push: id out of range";
    if not t.queued.(id) then begin
      t.queued.(id) <- true;
      t.heap.(t.size) <- id;
      t.size <- t.size + 1;
      (* sift up *)
      let i = ref (t.size - 1) in
      while !i > 0 && less t !i ((!i - 1) / 2) do
        swap t !i ((!i - 1) / 2);
        i := (!i - 1) / 2
      done
    end

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      t.heap.(0) <- t.heap.(t.size);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && less t l !smallest then smallest := l;
        if r < t.size && less t r !smallest then smallest := r;
        if !smallest <> !i then begin
          swap t !i !smallest;
          i := !smallest
        end
        else continue := false
      done;
      t.queued.(top) <- false;
      Some top
    end
end

module Dirty_set = struct
  type t = {
    flags : bool array;
    mutable members : int list; (* reversed insertion order *)
    mutable count : int;
  }

  let create n = { flags = Array.make n false; members = []; count = 0 }

  let add t id =
    if id < 0 || id >= Array.length t.flags then
      invalid_arg "Cone.Dirty_set.add: id out of range";
    if not t.flags.(id) then begin
      t.flags.(id) <- true;
      t.members <- id :: t.members;
      t.count <- t.count + 1
    end

  let iter f t =
    (* Walk insertion order; pick up elements added by [f] in further
       rounds until the set stops growing. *)
    let seen = ref 0 in
    let rec go () =
      let fresh = t.count - !seen in
      if fresh > 0 then begin
        let batch = List.filteri (fun i _ -> i < fresh) t.members in
        seen := t.count;
        List.iter f (List.rev batch);
        go ()
      end
    in
    go ()

  let clear t =
    List.iter (fun id -> t.flags.(id) <- false) t.members;
    t.members <- [];
    t.count <- 0
end
