(** Interposition-based cache inference — the paper's stated future work
    (Section 6: "with interpositioning, one can more easily observe all of
    the OS inputs and outputs and then model or simulate the OS to infer
    its current state.  In the future, we plan to investigate the use of
    interpositioning with gray-box ICLs").

    An {!t} wraps a process's file syscalls (the interposition agent) and
    feeds every observed access into a {e shadow simulation} of the file
    cache — literally one of the {!Simos.Replacement} policies run at user
    level over the observed reference stream.  Queries then come from the
    model instead of probes: zero perturbation (no Heisenberg effect), no
    probe cost, but only as accurate as (a) the assumed policy and
    (b) the completeness of the observed stream — exactly the trade-off
    Section 4.1.1 describes for the model/simulate approach.

    Misses happen when other processes (whose requests the agent cannot
    see) move the cache, or when the assumed capacity/policy is wrong;
    the comparison bench quantifies this against probing FCCD. *)

type t

val create :
  ?trace:Trace.t ->
  assumed_policy:Simos.Replacement.factory ->
  assumed_capacity_pages:int ->
  unit ->
  t
(** The agent's algorithmic knowledge: which replacement policy the OS
    (supposedly) runs and how many pages the file cache (supposedly)
    holds.  With [trace], every observed request is also recorded for
    offline {!Trace} analysis. *)

(** {1 The interposed syscalls}

    Drop-in wrappers: same signature as the {!Simos.Kernel} calls with the
    agent threaded through. *)

val read :
  t -> Simos.Kernel.env -> Simos.Kernel.fd -> path:string -> off:int -> len:int ->
  (int, Simos.Kernel.error) result

val write :
  t -> Simos.Kernel.env -> Simos.Kernel.fd -> path:string -> off:int -> len:int ->
  (int, Simos.Kernel.error) result

val note_unlink : t -> path:string -> unit
(** Keep the shadow coherent across deletions. *)

(** {1 Queries (no probes, no perturbation)} *)

val predicted_cached : t -> path:string -> page_idx:int -> bool
val predicted_fraction : t -> path:string -> pages:int -> float

val order_files : t -> paths:(string * int) list -> string list
(** Rank [(path, size_bytes)] by predicted cached fraction, best first —
    the interposed analogue of {!Fccd.order_files}. *)
