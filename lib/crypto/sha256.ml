(* SHA-256 (FIPS 180-4): the 64-byte block compression runs on the
   x86-64 SHA extensions when the CPU has them, and on native OCaml ints
   otherwise.

   ResilientDB uses SHA256 for all collision-resistant message digests
   (block hashes, request digests, checkpoint state digests); this module
   is the repo-wide digest primitive.  Verified against the NIST test
   vectors in the test suite, on both compression paths.

   Padding, buffering and the streaming API are OCaml and shared by both
   paths; only whole blocks go to the compression function.  The C
   kernel (sha256_stubs.c) is chosen once, here at initialisation, from
   a CPUID probe; nothing selects it afterwards and nothing can force
   it.  The OCaml [compress_ocaml] below is the fallback on CPUs without
   the extensions and the reference the tests hold the kernel to.

   In the OCaml path all 32-bit words are carried in OCaml native ints
   (63-bit), masked back to 32 bits after every addition, so the
   compression function is allocation-free. *)

external sha_ni_probe : unit -> bool = "rdb_sha256_ni_probe" [@@noalloc]

(* [compress_ni h data off n] compresses the [n] whole blocks of [data]
   at [off] into [h].  The caller checks the range. *)
external compress_ni :
  int array -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "rdb_sha256_ni_blocks_byte" "rdb_sha256_ni_blocks"
[@@noalloc]

let native = sha_ni_probe ()

type ctx = {
  h : int array;               (* 8-word chaining state (32-bit values) *)
  buf : Bytes.t;               (* 64-byte block buffer *)
  mutable buf_len : int;       (* bytes currently in [buf] *)
  mutable total : int;         (* total message length in bytes *)
  w : int array;               (* 64-word message schedule; empty when
                                  the kernel compresses *)
}

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let make ~native =
  {
    h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
           0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = (if native then [||] else Array.make 64 0);
  }

let init () = make ~native
let init_reference () = make ~native:false

let mask = 0xFFFFFFFF

(* Rotate-right within the 32-bit domain; [x] must already be masked. *)
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* Process one 64-byte block located at [off] in [data]. *)
let compress_ocaml ctx (data : Bytes.t) off =
  let w = ctx.w in
  for t = 0 to 15 do
    let base = off + (4 * t) in
    let b i = Char.code (Bytes.unsafe_get data (base + i)) in
    Array.unsafe_set w t ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3)
  done;
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let ev = !e in
    let s1 = rotr ev 6 lxor rotr ev 11 lxor rotr ev 25 in
    let ch = (ev land !f) lxor (lnot ev land mask land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let av = !a in
    let s0 = rotr av 2 lxor rotr av 13 lxor rotr av 22 in
    let maj = (av land !b) lxor (av land !c) lxor (!b land !c) in
    let t2 = s0 + maj in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := av;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

(* Compress the [n] whole blocks of [data] at [off]. *)
let compress_blocks ctx data off n =
  if Array.length ctx.w = 0 then compress_ni ctx.h data off n
  else
    for i = 0 to n - 1 do
      compress_ocaml ctx data (off + (64 * i))
    done

let feed_bytes ctx (data : Bytes.t) off len =
  if off < 0 || len < 0 || off > Bytes.length data - len then invalid_arg "Sha256.feed_bytes";
  ctx.total <- ctx.total + len;
  let off = ref off and len = ref len in
  (* Fill a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !len (64 - ctx.buf_len) in
    Bytes.blit data !off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    off := !off + take;
    len := !len - take;
    if ctx.buf_len = 64 then begin
      compress_blocks ctx ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input, in one call. *)
  let blocks = !len / 64 in
  if blocks > 0 then begin
    compress_blocks ctx data !off blocks;
    off := !off + (64 * blocks);
    len := !len - (64 * blocks)
  end;
  (* Stash the tail. *)
  if !len > 0 then begin
    Bytes.blit data !off ctx.buf ctx.buf_len !len;
    ctx.buf_len <- ctx.buf_len + !len
  end

let feed_string ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize ctx : string =
  let bit_len = ctx.total * 8 in
  (* Padding: 0x80, zeros, then 64-bit big-endian bit length. *)
  let pad_len =
    let rem = (ctx.buf_len + 1 + 8) mod 64 in
    if rem = 0 then 1 + 8 else 1 + 8 + (64 - rem)
  in
  let pad = Bytes.make pad_len '\x00' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad (pad_len - 1 - i) (Char.chr ((bit_len lsr (8 * i)) land 0xFF))
  done;
  (* feed_bytes updates [total], but we've already captured the length. *)
  feed_bytes ctx pad 0 pad_len;
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xFF));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xFF))
  done;
  Bytes.unsafe_to_string out

(* One-shot digest of a string; returns the raw 32-byte digest. *)
let digest (s : string) : string =
  let ctx = init () in
  feed_string ctx s;
  finalize ctx

let digest_hex s = Hex.of_string (digest s)

(* Digest of the concatenation of several strings, without building the
   concatenation. *)
let digest_list (parts : string list) : string =
  let ctx = init () in
  List.iter (fun p -> feed_string ctx p) parts;
  finalize ctx
