(* Generic structural fingerprint: the oracle for the models' packed
   visited-set keys ({!Mc.Explore.MODEL.key}).

   One pre-order walk over the whole value (the polymorphic hash samples
   a bounded number of nodes, and a value differing only past the cap
   would collide). Every immediate and every block header is folded
   through the explorer's mixer; only blocks whose fields are values are
   descended into, so raw words are never followed as pointers. Strings,
   floats and custom blocks hash by content, so structurally equal
   values (however shared) get equal fingerprints. Raises
   [Invalid_argument] on functional values, as [compare] does. *)

let step = Mc.Explore.step

(* a header token: tag and size, tagged apart from small immediates *)
let[@inline] header tag size = (1 lsl 61) lor (size lsl 8) lor tag

let rec walk h o =
  if Obj.is_int o then step h (Obj.obj o : int)
  else begin
    let tag = Obj.tag o and size = Obj.size o in
    let h = step h (header tag size) in
    if tag <= Obj.last_non_constant_constructor_tag then
      if size = 0 then h else fields h o 0 (size - 1)
    else if tag = Obj.string_tag then begin
      let s : string = Obj.obj o in
      let h = ref (step h (String.length s)) in
      String.iter (fun c -> h := step !h (Char.code c)) s;
      !h
    end
    else if tag = Obj.double_tag then float_bits h (Obj.obj o : float)
    else if tag = Obj.double_array_tag then begin
      let h = ref h in
      for i = 0 to size - 1 do
        h := float_bits !h (Obj.double_field o i)
      done;
      !h
    end
    else if tag = Obj.custom_tag then step h (Hashtbl.hash o)
    else if tag = Obj.abstract_tag then h
    else invalid_arg "Fingerprint.of_value: functional or lazy value"
  end

(* the last field is a tail call, so long lists do not grow the stack *)
and fields h o i last =
  if i = last then walk h (Obj.field o i) else fields (walk h (Obj.field o i)) o (i + 1) last

(* [=] equates 0. and -0., so they must fingerprint alike *)
and float_bits h f = step h (Int64.to_int (Int64.bits_of_float (if f = 0. then 0. else f)))

let of_value v = Mc.Explore.finish (walk Mc.Explore.seed (Obj.repr v))

(* [M] keyed by the oracle walk instead of its packed key. *)
module Keyed (M : Mc.Explore.MODEL) : Mc.Explore.MODEL with type state = M.state = struct
  include M

  let key = of_value
end
