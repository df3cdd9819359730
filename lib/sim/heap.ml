(* Binary min-heap of timestamped events.

   Keys are (time, sequence-number): the sequence number breaks ties in
   insertion order, which makes event ordering — and therefore the whole
   simulation — deterministic regardless of heap internals.

   Layout: a slot table plus three parallel int arrays.  A payload is
   written once into a slot of [pays] and stays there until it is
   popped; the heap arrays hold (time, seq, slot) per position, all
   immediates.  A sift therefore moves only ints — no [caml_modify], no
   write barrier, nothing for the major GC to darken — and each push
   and pop does exactly one pointer store: the payload into its slot,
   or the filler over it.

   [slots] doubles as the free-slot stack: positions [0, size) are the
   heap, positions [size, capacity) hold the slots not in use.  A push
   takes the slot just past the heap, a pop leaves the root's slot just
   past the shrunken heap, so every slot is live or free, never both. *)

type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pays : 'a array;
  mutable filler : 'a option;
      (* written over a popped payload so the heap does not keep it
         alive: the first payload ever pushed, also the grow fill *)
  mutable size : int;
}

let create () = { times = [||]; seqs = [||]; slots = [||]; pays = [||]; filler = None; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* The root key without materializing an entry (the engine's scheduling
   loop polls this on every step). *)
let min_time t = if t.size = 0 then max_int else Array.unsafe_get t.times 0

let grow t ~(dummy : 'a) =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 64 else 2 * cap in
  let ntimes = Array.make ncap 0 in
  let nseqs = Array.make ncap 0 in
  let filler = match t.filler with Some f -> f | None -> dummy in
  let npays = Array.make ncap filler in
  Array.blit t.times 0 ntimes 0 t.size;
  Array.blit t.seqs 0 nseqs 0 t.size;
  Array.blit t.pays 0 npays 0 cap;
  (* The heap is full, so [slots] holds no free entries: the new
     slots [cap, ncap) are the whole free stack. *)
  let nslots = Array.init ncap (fun i -> if i < cap then t.slots.(i) else i) in
  t.times <- ntimes;
  t.seqs <- nseqs;
  t.slots <- nslots;
  t.pays <- npays;
  t.filler <- Some filler

let push t ~time:tm ~seq payload =
  if t.size = Array.length t.times then grow t ~dummy:payload;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = Array.unsafe_get slots t.size in
  Array.unsafe_set t.pays slot payload;
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
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i tm;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let peek t =
  if t.size = 0 then None
  else Some { time = t.times.(0); seq = t.seqs.(0); payload = t.pays.(t.slots.(0)) }

(* Remove the root and return its payload, without materializing an
   entry: the engine's hot loop reads the key with [min_time] first. *)
let pop_payload t =
  if t.size = 0 then invalid_arg "Heap.pop_payload: empty heap";
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let top_slot = Array.unsafe_get slots 0 in
  let top = Array.unsafe_get t.pays top_slot in
  (match t.filler with Some f -> Array.unsafe_set t.pays top_slot f | None -> ());
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then begin
    (* Sift the last element down from the root with a hole. *)
    let mt = Array.unsafe_get times n in
    let ms = Array.unsafe_get seqs n in
    let mslot = Array.unsafe_get slots n in
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
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i mt;
    Array.unsafe_set seqs !i ms;
    Array.unsafe_set slots !i mslot
  end;
  (* The root's slot joins the free stack just past the heap. *)
  Array.unsafe_set slots n top_slot;
  top

let pop t =
  match peek t with
  | None -> None
  | top ->
      ignore (pop_payload t);
      top
