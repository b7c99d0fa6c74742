let get v k = (v lsr k) land 1 = 1
let set v k b = if b then v lor (1 lsl k) else v land lnot (1 lsl k)

let gather v positions =
  let acc = ref 0 in
  for j = 0 to Array.length positions - 1 do
    if (v lsr Array.unsafe_get positions j) land 1 = 1 then
      acc := !acc lor (1 lsl j)
  done;
  !acc

let to_string ~width v =
  String.init width (fun k -> if get v k then '1' else '0')

let of_string s =
  let v = ref 0 in
  String.iteri
    (fun k c ->
      match c with
      | '0' -> ()
      | '1' -> v := set !v k true
      | _ -> invalid_arg "Bits.of_string: non-binary character")
    s;
  !v
