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
    members : int array;  (* insertion order; each id at most once *)
    mutable count : int;
  }

  let create n =
    { flags = Array.make n false; members = Array.make n 0; count = 0 }

  let add t id =
    if id < 0 || id >= Array.length t.flags then
      invalid_arg "Cone.Dirty_set.add: id out of range";
    if not t.flags.(id) then begin
      t.flags.(id) <- true;
      t.members.(t.count) <- id;
      t.count <- t.count + 1
    end

  (* Walk by index: elements [f] adds land past the cursor and are visited
     in turn. *)
  let iter f t =
    let i = ref 0 in
    while !i < t.count do
      f t.members.(!i);
      incr i
    done

  let clear t =
    for i = 0 to t.count - 1 do
      t.flags.(t.members.(i)) <- false
    done;
    t.count <- 0
end
