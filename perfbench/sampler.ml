(* SIGPROF sampling profiler with a library roll-up.

   While started, an ITIMER_PROF timer fires every millisecond of
   process CPU time.  Each sample walks the OCaml call stack from the
   innermost frame outwards and is charged to the first frame whose
   source file lies under lib/<name>/: stdlib frames (Hashtbl, Buffer,
   ...) count toward their nearest lib/ caller, and a sample with no
   lib/ frame at all is charged to "other".  Inlined frames carry their
   own source location, so an inlined Splitmix64.mix is charged to
   prng, not to its caller.

   Needs the executable built with debug information (dune's default
   profile), otherwise every sample lands in "other". *)

let counts : (string, int) Hashtbl.t = Hashtbl.create 32
let total = ref 0

(* Source file -> library, memoized: a profile touches a few hundred
   distinct files at most. *)
let lib_cache : (string, string option) Hashtbl.t = Hashtbl.create 256

let lib_of_file file =
  match Hashtbl.find_opt lib_cache file with
  | Some lib -> lib
  | None ->
      let rec find = function
        | "lib" :: name :: _ :: _ -> Some name
        | _ :: rest -> find rest
        | [] -> None
      in
      let lib = find (String.split_on_char '/' file) in
      Hashtbl.replace lib_cache file lib;
      lib

let slot_lib slot =
  Option.bind (Printexc.Slot.location slot) (fun loc ->
      lib_of_file loc.Printexc.filename)

let record () =
  incr total;
  let lib =
    match Printexc.backtrace_slots (Printexc.get_callstack 64) with
    | None -> None
    | Some slots -> Array.find_map slot_lib slots
  in
  let key = Option.value lib ~default:"other" in
  Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))

let set_interval s =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = s; it_value = s })

let start () =
  Hashtbl.reset counts;
  total := 0;
  Printexc.record_backtrace true;
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> record ()));
  set_interval 0.001

let stop () =
  set_interval 0.;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

(* Samples per library, largest first, plus the total. *)
let result () =
  let rows = Hashtbl.fold (fun lib n acc -> (lib, n) :: acc) counts [] in
  (List.sort (fun (_, a) (_, b) -> compare b a) rows, !total)
