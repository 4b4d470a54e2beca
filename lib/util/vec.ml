type 'a t = { mutable data : 'a array; mutable len : int; mutable capacity : int }

(* ['a] has no default value, so the backing array cannot be allocated until
   the first [push]; [capacity] remembers the requested pre-size until then. *)
let create ?(capacity = 16) () = { data = [||]; len = 0; capacity = max 1 capacity }

let length t = t.len
let is_empty t = t.len = 0

let grow t x =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then t.capacity else 2 * cap in
  let data = Array.make ncap x in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let check t i = if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.len
let map_to_array f t = Array.init t.len (fun i -> f t.data.(i))
let map f t = { data = map_to_array f t; len = t.len; capacity = max 1 t.len }
let of_array a = { data = Array.copy a; len = Array.length a; capacity = max 1 (Array.length a) }

let find_index p t =
  let rec loop i =
    if i >= t.len then None else if p t.data.(i) then Some i else loop (i + 1)
  in
  loop 0

let clear t = t.len <- 0
