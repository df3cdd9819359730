(* The replicated YCSB table's size.

   The paper's evaluation: "Each client transaction queries a YCSB
   table with an active set of 600 k records. ... Prior to the
   experiments, each replica is initialized with an identical copy of
   the YCSB table."  The table itself is each replica's
   [Rdb_storage.Kv]; this is the one place its default size lives. *)

let default_records = 600_000
