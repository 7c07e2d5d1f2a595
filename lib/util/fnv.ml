let offset = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let hash64 s =
  let h = ref offset in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) prime
  done;
  !h

(* Native-int (63-bit) variant.  The journal seal, chaos keys and
   reservoir victim picks all predate this module and used native-int
   arithmetic with a 63-bit-truncated offset basis; existing sealed
   journals and chaos plans must keep behaving identically, so these
   folds reproduce that computation bit-for-bit rather than masking
   {!hash64}. *)
let basis63 = 0x3bf29ce484222325
let prime63 = 0x100000001b3
let fold_byte63 h byte = (h lxor (byte land 0xff)) * prime63

let fold_int63 h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := fold_byte63 !h (v asr (shift * 8))
  done;
  !h

let fold_string63 h s =
  let h = ref h in
  String.iter (fun c -> h := fold_byte63 !h (Char.code c)) s;
  !h

let mask63 h = h land max_int
let hex63 s = Printf.sprintf "%016x" (mask63 (fold_string63 basis63 s))
