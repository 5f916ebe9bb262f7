(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: a field store would box a fresh [Int64] on every draw,
   while [Bytes.get/set_int64_le] keep it unboxed, so a draw of [int] or
   [bool] allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix (Int64.of_int (seed * 2 + 1)))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Rejection sampling avoids modulo bias. *)
let rec draw t n limit =
  let v = bits62 t in
  if v >= limit then draw t n limit else v mod n

let int t n =
  assert (n > 0);
  let bound = 0x3FFF_FFFF_FFFF_FFFF in
  draw t n (bound - (bound mod n))

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x *. (v /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let split t = of_state (next t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
