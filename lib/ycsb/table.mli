(** The replicated YCSB table (paper §4: "an active set of 600k
    records", identically initialized on every replica).  Each
    replica's copy is its [Rdb_storage.Kv]. *)

val default_records : int
(** 600_000, as in the paper. *)
