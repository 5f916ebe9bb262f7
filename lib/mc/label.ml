(* A label is an int: primitive index in bits 0-7, arity (0-2) in bits
   8-9, then up to two 16-bit node indices. Packing costs no allocation,
   and [render] rebuilds the label string on demand. *)

let bare prim = prim
let indexed prim i = prim lor (1 lsl 8) lor (i lsl 10)
let edge prim src dst = prim lor (2 lsl 8) lor (src lsl 10) lor (dst lsl 26)

let render names l =
  let name = names.(l land 0xff) in
  let a = (l lsr 10) land 0xffff in
  match (l lsr 8) land 3 with
  | 0 -> name
  | 1 -> name ^ string_of_int a
  | _ -> Printf.sprintf "%s(%d->%d)" name a (l lsr 26)
