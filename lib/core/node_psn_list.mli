(** NodePSNList construction and merging (§2.3.4).

    For each page that requires recovery, each involved node contributes
    the PSN (and log location) of the {e first} log record of every
    transaction-run it executed against the page: within one run the
    page could not have been touched by any other node (strict 2PL holds
    the X lock for the whole transaction), so runs are the atoms of the
    cross-node redo order, and ordering runs by PSN reconstructs the
    exact global update sequence without any clock. *)

open Repro_storage

type run = {
  node : int;
  psn : int;  (** PSN the page had before the run's first update *)
  lsn : Repro_wal.Lsn.t;  (** where this run's redo scan starts in [node]'s log *)
}

type listing = {
  runs : run list;  (** the NodePSNList proper, in log order *)
  records : (Repro_wal.Lsn.t * int) list;
      (** every record of the page in this node's log, (LSN, PSN-before)
          in log order — the "location of this log record is remembered
          and will be used during the recovery" of §2.3.4, so redo
          rounds read exactly their own records instead of rescanning *)
}

val build :
  Repro_wal.Log_manager.t ->
  node:int ->
  pages:Page_id.Set.t ->
  start:Repro_wal.Lsn.t ->
  listing Page_id.Map.t
(** One forward scan of the node's log from [start] (the minimum RedoLSN
    of the node's DPT entries for [pages]); returns, per page, the runs
    and remembered record locations, in log order.  A new run starts
    whenever the transaction differs from the one that produced the
    page's previously inserted run (paper's conditions (a) and (b)).
    The scan is charged as recovery work. *)

val merge : run list list -> run list
(** Merges per-node run lists for one page into the global redo order:
    ascending by PSN, adjacent same-node runs collapsed into one (keeping
    the smaller PSN / earlier LSN — paper's step 1). *)
