(** Proportional-share CPU scheduling for multi-tenant fleets.

    Without a scheduler, {!Kernel.compute} reserves its whole burst on
    the earliest-free CPU slot ({!Resource.acquire}, FCFS): the first
    long burst dispatched monopolises a CPU until it completes, and a
    process arriving one event later waits out the entire burst.  That
    is fine for a handful of cooperating processes (the paper's own
    experiments) and hopeless for a fleet of thousands of contenders.

    With a scheduler installed ({!Kernel.boot}'s [?sched]), [compute]
    slices each burst into weighted quanta and reserves them one at a
    time, re-entering the slot timeline between slices.  Because every
    contending fiber does the same, FCFS at quantum granularity {e is}
    weighted round-robin: between two consecutive slices of a runnable
    process, every other active process obtains at most one slice, so
    no runnable process waits longer than the sum of the other active
    processes' chunk lengths (the proportional-share starvation bound —
    see DESIGN.md §16 and [test/test_sched.ml] for the property as
    tested).

    One admission caveat: a burst dispatched while its process is the
    {e sole} registered participant runs whole — that is the legacy
    path below, and it is load-bearing, not an oversight.  The bound
    therefore governs bursts admitted under contention; a long burst
    admitted on an idle queue completes before newcomers get a slice
    (there is no mid-reservation preemption in the slot timeline).

    This module itself is pure bookkeeping — weights, participant
    counts and grant accounting.  It draws no RNG and never advances
    the clock; the slot timeline stays {!Resource}.  Two consequences
    the fleet plane relies on:

    - {b byte-identity when uncontended}: while a scheduler kernel has
      a single registered process, [compute] takes the exact legacy
      whole-burst path (one reservation, one delay), so a 1-process
      fleet is bit-identical to the scheduler-less solo path;
    - {b restart audit}: the run queue is machine state; a
      {!Kernel.restart} resets registrations and grant counters along
      with the ledger. *)

type config = { sd_quantum_ns : int  (** slice length for weight-1 processes *) }

val default_config : config
(** 1 ms quantum: coarse enough that slicing adds few engine events,
    fine enough that a 4-way contended 50 ms burst interleaves. *)

type t

val create : config -> t
(** Raises [Invalid_argument] on a non-positive quantum. *)

(** {1 Registration}

    {!Kernel.spawn} registers each process when its fiber starts and
    unregisters it when the fiber cleans up, so the participant count
    tracks live processes exactly. *)

val register : t -> pid:int -> weight:int -> unit
(** Raises [Invalid_argument] on a non-positive weight. *)

val unregister : t -> pid:int -> unit
val weight : t -> pid:int -> int
(** 0 when unregistered. *)

val participants : t -> int

val chunk_ns : t -> pid:int -> int
(** The slice length this process is granted per round:
    [quantum * weight] (weight 1 when unregistered — a defensive
    default, not a code path the kernel takes). *)

(** {1 Grant accounting}

    Written by the kernel as it reserves CPU; read by the fairness
    figures and the scheduler property tests. *)

val note_slice : t -> pid:int -> ns:int -> unit

val slices : t -> int
(** Total slices granted since boot/restart. *)

val granted_ns : t -> int
(** Total CPU-ns granted since boot/restart. *)

val granted_of : t -> pid:int -> int
(** CPU-ns granted to this pid; survives the pid's exit (grants
    describe the epoch, registrations describe the instant). *)

val reset : t -> unit
(** {!Kernel.restart}: forget registrations and grants — the rebooted
    machine has no run queue. *)
