(* Doubling buffers: amortized O(1) append into one flat array. [create]
   takes the expected element count, the way [Hashtbl.create] does; a
   caller that knows it skips every grow-and-copy, and a caller that
   guesses low only pays the doublings. *)

type t = { mutable a : int array; mutable len : int }

let create n = { a = Array.make (Stdlib.max 1 n) 0; len = 0 }

let push v x =
  if v.len = Array.length v.a then begin
    let a = Array.make (2 * v.len) 0 in
    Array.blit v.a 0 a 0 v.len;
    v.a <- a
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

let get v i = v.a.(i)
let set v i x = v.a.(i) <- x

module Float = struct
  type t = { mutable a : float array; mutable len : int }

  let create n = { a = Array.make (Stdlib.max 1 n) 0.0; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let a = Array.make (2 * v.len) 0.0 in
      Array.blit v.a 0 a 0 v.len;
      v.a <- a
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.a.(i)
end
