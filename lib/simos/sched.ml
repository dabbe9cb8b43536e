(* Proportional-share run-queue bookkeeping: see the .mli for the model.
   Pids are small and dense (the kernel hands them out sequentially), so
   weights and grants live in growable arrays like the accounting
   ledger's rows — registration, lookup and the per-slice bump are all
   array stores, nothing allocates on the compute hot path. *)

type config = { sd_quantum_ns : int }

let default_config = { sd_quantum_ns = 1_000_000 }

type t = {
  t_quantum_ns : int;
  mutable weights : int array;  (* index = pid; 0 = unregistered *)
  mutable granted : int array;  (* ns granted, survives unregister *)
  mutable participants : int;
  mutable slices : int;
  mutable granted_ns : int;
}

let initial_pids = 16

let create config =
  if config.sd_quantum_ns <= 0 then
    invalid_arg "Sched.create: quantum must be positive";
  {
    t_quantum_ns = config.sd_quantum_ns;
    weights = Array.make initial_pids 0;
    granted = Array.make initial_pids 0;
    participants = 0;
    slices = 0;
    granted_ns = 0;
  }

let ensure_pid t pid =
  if pid >= Array.length t.weights then begin
    let cap = ref (Array.length t.weights) in
    while pid >= !cap do
      cap := !cap * 2
    done;
    let fresh_w = Array.make !cap 0 and fresh_g = Array.make !cap 0 in
    Array.blit t.weights 0 fresh_w 0 (Array.length t.weights);
    Array.blit t.granted 0 fresh_g 0 (Array.length t.granted);
    t.weights <- fresh_w;
    t.granted <- fresh_g
  end

let register t ~pid ~weight =
  if weight <= 0 then invalid_arg "Sched.register: weight must be positive";
  if pid < 0 then invalid_arg "Sched.register: negative pid";
  ensure_pid t pid;
  if t.weights.(pid) = 0 then t.participants <- t.participants + 1;
  t.weights.(pid) <- weight

let unregister t ~pid =
  if pid >= 0 && pid < Array.length t.weights && t.weights.(pid) > 0 then begin
    t.weights.(pid) <- 0;
    t.participants <- t.participants - 1
  end

let weight t ~pid =
  if pid >= 0 && pid < Array.length t.weights then t.weights.(pid) else 0

let participants t = t.participants

let chunk_ns t ~pid = t.t_quantum_ns * max 1 (weight t ~pid)

let note_slice t ~pid ~ns =
  if pid >= 0 then begin
    ensure_pid t pid;
    t.granted.(pid) <- t.granted.(pid) + ns
  end;
  t.slices <- t.slices + 1;
  t.granted_ns <- t.granted_ns + ns

let slices t = t.slices
let granted_ns t = t.granted_ns

let granted_of t ~pid =
  if pid >= 0 && pid < Array.length t.granted then t.granted.(pid) else 0

let reset t =
  t.weights <- Array.make initial_pids 0;
  t.granted <- Array.make initial_pids 0;
  t.participants <- 0;
  t.slices <- 0;
  t.granted_ns <- 0
