(* One strict-validation path for every GRAYBOX_* variable.  Each plane
   keeps its own grammar (the [parse] callback) but the variable name, the
   offending token and the failure channel are rendered uniformly here, so
   a typo in any of the seven variables reads the same way. *)

type 'a outcome = Value of 'a | Soft of string * 'a | Invalid

let message ~var ~token ~expected =
  Printf.sprintf "%s=%s: expected %s" var token expected

(* Double-checked: the fast path is one atomic read; the first callers
   serialise on the mutex so [f] runs exactly once even when several
   domains ask at the same moment (a [lazy] raises
   [CamlinternalLazy.Undefined] in that case).  If [f] raises, nothing is
   cached and the next call runs it again. *)
let once f =
  let m = Mutex.create () in
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None ->
      Mutex.protect m (fun () ->
          match Atomic.get cell with
          | Some v -> v
          | None ->
            let v = f () in
            Atomic.set cell (Some v);
            v)

let normalize s = String.lowercase_ascii (String.trim s)

let parse ~var ~expected ~on_invalid ~default parse_token =
  match Sys.getenv_opt var with
  | None | Some "" -> default
  | Some raw -> (
    let token = normalize raw in
    if token = "" then default
    else
      match parse_token token with
      | Value v -> v
      | Soft (detail, v) ->
        Printf.eprintf "warning: %s=%s: %s\n%!" var token detail;
        v
      | Invalid -> (
        let msg = message ~var ~token ~expected in
        match on_invalid with
        | `Raise -> invalid_arg msg
        | `Exit ->
          Printf.eprintf "error: %s\n%!" msg;
          exit 2))
