(* Binary min-heap of timestamped events.

   Keys are (time, sequence-number): the sequence number breaks ties in
   insertion order, which makes event ordering — and therefore the whole
   simulation — deterministic regardless of heap internals.

   Layout: three parallel arrays (times, seqs, payloads) instead of an
   array of boxed entry records.  A push is then two int stores and a
   pointer store — no per-entry allocation — and the sift comparisons
   are unboxed native-int compares instead of [Int64.compare] on boxed
   keys.  Times are stored as native ints: simulated time is int64
   nanoseconds, and 62 bits of nanoseconds is ~146 years of simulated
   time, far beyond any run. *)

type 'a entry = { time : int64; seq : int; payload : 'a }

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable pays : 'a array;
  mutable size : int;
}

let create () = { times = [||]; seqs = [||]; pays = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* [min_time]: the root key without materializing an entry (the engine's
   scheduling loop polls this on every step). *)
let min_time t : int64 = if t.size = 0 then Int64.max_int else Int64.of_int t.times.(0)

let min_key t : int = if t.size = 0 then max_int else t.times.(0)

let grow t ~(dummy : 'a) =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 64 else 2 * cap in
  let ntimes = Array.make ncap 0 in
  let nseqs = Array.make ncap 0 in
  let npays = Array.make ncap dummy in
  Array.blit t.times 0 ntimes 0 t.size;
  Array.blit t.seqs 0 nseqs 0 t.size;
  Array.blit t.pays 0 npays 0 t.size;
  t.times <- ntimes;
  t.seqs <- nseqs;
  t.pays <- npays

let push t ~(time : int64) ~seq payload =
  if t.size = Array.length t.times then grow t ~dummy:payload;
  let times = t.times and seqs = t.seqs and pays = t.pays in
  let tm = Int64.to_int time in
  (* Sift up with a hole: move parents down, write the new key once. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get times parent in
    if pt > tm || (pt = tm && Array.unsafe_get seqs parent > seq) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set pays !i (Array.unsafe_get pays parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i tm;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set pays !i payload

let peek t =
  if t.size = 0 then None
  else
    Some { time = Int64.of_int t.times.(0); seq = t.seqs.(0); payload = t.pays.(0) }

(* Remove the root and return its payload, without materializing an
   entry: the engine's hot loop reads the key with [min_time] first. *)
let pop_payload t =
  if t.size = 0 then invalid_arg "Heap.pop_payload: empty heap";
  let times = t.times and seqs = t.seqs and pays = t.pays in
  let top = pays.(0) in
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then begin
    (* Sift the last element down from the root with a hole. *)
    let mt = Array.unsafe_get times n in
    let ms = Array.unsafe_get seqs n in
    let mp = Array.unsafe_get pays n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let lt = Array.unsafe_get times l and rt = Array.unsafe_get times r in
            if rt < lt || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l) then r
            else l
          end
          else l
        in
        let ct = Array.unsafe_get times c in
        if ct < mt || (ct = mt && Array.unsafe_get seqs c < ms) then begin
          Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set pays !i (Array.unsafe_get pays c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i mt;
    Array.unsafe_set seqs !i ms;
    Array.unsafe_set pays !i mp
  end;
  top

let pop t =
  match peek t with
  | None -> None
  | top ->
      ignore (pop_payload t);
      top
