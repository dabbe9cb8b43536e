(* Pqueue, Param_repo, Units, Histogram, Dist, Table. *)

open Gray_util

(* ---- Pqueue ---- *)

let test_pqueue_order () =
  let q = Pqueue.create ~cmp:compare in
  List.iter (Pqueue.push q) [ 5; 1; 4; 1; 3; 9; 2 ];
  let out = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some x ->
      out := x :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (List.rev !out)

let test_pqueue_empty () =
  let q = Pqueue.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.(check (option int)) "pop none" None (Pqueue.pop q);
  Alcotest.(check (option int)) "peek none" None (Pqueue.peek q)

let test_pqueue_peek () =
  let q = Pqueue.create ~cmp:compare in
  Pqueue.push q 3;
  Pqueue.push q 1;
  Alcotest.(check (option int)) "peek min" (Some 1) (Pqueue.peek q);
  Alcotest.(check int) "length" 2 (Pqueue.length q)

let prop_pqueue_sorts =
  QCheck2.Test.make ~name:"pqueue drains sorted" ~count:300
    QCheck2.Gen.(list_size (int_range 0 200) int)
    (fun xs ->
      let q = Pqueue.create ~cmp:compare in
      List.iter (Pqueue.push q) xs;
      let rec drain acc =
        match Pqueue.pop q with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

(* ---- Param_repo ---- *)

let test_repo_roundtrip () =
  let r = Param_repo.create () in
  Param_repo.set r ~key:"disk.avg_seek_ns" ~value:5.3e6 ~source:"microbench";
  Param_repo.set r ~key:"mem.copy_page_ns" ~value:27000.0 ~source:"microbench";
  let r2 = Param_repo.of_string (Param_repo.to_string r) in
  Alcotest.(check (list string)) "keys" (Param_repo.keys r) (Param_repo.keys r2);
  Alcotest.(check (option (float 1e-3))) "value" (Some 5.3e6)
    (Param_repo.get r2 "disk.avg_seek_ns");
  Alcotest.(check (option string)) "source" (Some "microbench")
    (Param_repo.source r2 "disk.avg_seek_ns")

let test_repo_missing () =
  let r = Param_repo.create () in
  Alcotest.(check (option (float 0.0))) "missing" None (Param_repo.get r "nope");
  Alcotest.(check (float 1e-9)) "default" 7.0 (Param_repo.get_or r "nope" ~default:7.0)

let test_repo_bad_key () =
  let r = Param_repo.create () in
  Alcotest.check_raises "bad key" (Invalid_argument "Param_repo.set: bad key a b")
    (fun () -> Param_repo.set r ~key:"a b" ~value:1.0 ~source:"x")

let test_repo_bad_parse () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Param_repo.of_string "not a line");
       false
     with Failure _ -> true)

let test_repo_comments_and_blanks () =
  let r = Param_repo.of_string "# header\n\nfoo = 1.5 # note\n" in
  Alcotest.(check (option (float 1e-9))) "foo" (Some 1.5) (Param_repo.get r "foo")

(* ---- Units ---- *)

let test_units () =
  Alcotest.(check int) "mib" (1024 * 1024) Units.mib;
  Alcotest.(check int) "bytes_of_mib" (20 * 1024 * 1024) (Units.bytes_of_mib 20);
  Alcotest.(check (float 1e-9)) "mib_of_bytes" 1.5
    (Units.mib_of_bytes (Units.mib + (Units.mib / 2)));
  Alcotest.(check string) "pp bytes" "20.0 MB" (Units.bytes_to_string (Units.bytes_of_mib 20));
  Alcotest.(check string) "pp ns" "3.2 us" (Units.ns_to_string 3200);
  Alcotest.(check string) "pp s" "54.30 s" (Units.ns_to_string (Units.ns_of_sec 54.3))

(* ---- Histogram ---- *)

let test_histogram () =
  let h = Histogram.create ~min:0.0 ~max:10.0 ~bins:10 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -1.0; 10.0; 11.0 ];
  Alcotest.(check int) "total" 7 (Histogram.count h);
  Alcotest.(check int) "bin 0" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin 9" 1 (Histogram.bin_count h 9);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h);
  Alcotest.(check int) "mode" 1 (Histogram.mode_bin h);
  Alcotest.(check bool) "render non-empty" true (String.length (Histogram.render h ~width:20) > 0)

(* ---- Dist ---- *)

let test_exponential_mean () =
  let rng = Rng.create ~seed:41 in
  let acc = Stats.empty () in
  for _ = 1 to 50_000 do
    Stats.add acc (Dist.exponential rng ~rate:2.0)
  done;
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (Stats.mean acc -. 0.5) < 0.02)

let test_lognormal_factor_mean () =
  let rng = Rng.create ~seed:43 in
  let acc = Stats.empty () in
  for _ = 1 to 50_000 do
    Stats.add acc (Dist.lognormal_factor rng ~sigma:0.3)
  done;
  Alcotest.(check bool) "mean near 1" true (Float.abs (Stats.mean acc -. 1.0) < 0.02);
  Alcotest.(check (float 1e-9)) "sigma 0 exact" 1.0 (Dist.lognormal_factor rng ~sigma:0.0)

let test_zipf_skew () =
  let rng = Rng.create ~seed:47 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Dist.zipf rng ~n:100 ~theta:0.99 in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "head heavier than tail" true (counts.(0) > 10 * counts.(99));
  Alcotest.(check bool) "all in range" true (Array.for_all (fun c -> c >= 0) counts)

let test_pareto_bounds () =
  let rng = Rng.create ~seed:53 in
  for _ = 1 to 5_000 do
    let x = Dist.pareto_bounded rng ~shape:1.2 ~min:2.0 ~max:64.0 in
    Alcotest.(check bool) "in bounds" true (x >= 2.0 && x <= 64.0 +. 1e-6)
  done

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:59 in
  let s = Dist.sample_without_replacement rng ~k:10 ~n:20 in
  Alcotest.(check int) "k elements" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  let distinct = Array.for_all (fun i -> i >= 0 && i < 20) sorted in
  Alcotest.(check bool) "in range" true distinct;
  for i = 1 to 9 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done

(* ---- Table ---- *)

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "has rows" true
    (String.split_on_char '\n' s |> List.length >= 5)

let test_bar_chart () =
  let s = Table.bar_chart ~title:"B" [ ("x", 1.0); ("y", 2.0) ] in
  Alcotest.(check bool) "renders" true (String.length s > 5)

(* ---- Env.once ---- *)

(* Two domains meet at a spin barrier before every cell, then force the
   same fresh cell together.  A [lazy] here raises
   [CamlinternalLazy.Undefined] in one of them now and then; a [once] cell
   must run its body exactly once and hand both domains the same value. *)
let test_env_once_race () =
  let rounds = 10_000 in
  let calls = Array.init rounds (fun _ -> Atomic.make 0) in
  let cells =
    Array.init rounds (fun i ->
        Env.once (fun () ->
            Atomic.incr calls.(i);
            (* widen the window between the first check and the store *)
            for _ = 1 to 50 do Domain.cpu_relax () done;
            i))
  in
  let arrived = Atomic.make 0 in
  (* an exception is recorded, not raised, so both racers keep meeting at
     the barrier and the test fails instead of hanging *)
  let racer () =
    Array.mapi
      (fun i cell ->
        Atomic.incr arrived;
        while Atomic.get arrived < 2 * (i + 1) do Domain.cpu_relax () done;
        match cell () with v -> v | exception _ -> -1)
      cells
  in
  let other = Domain.spawn racer in
  let mine = racer () in
  let theirs = Domain.join other in
  let expected = Array.init rounds Fun.id in
  Alcotest.(check bool) "every value is its own cell's, in both domains" true
    (mine = expected && theirs = expected);
  Alcotest.(check bool) "every body ran exactly once" true
    (Array.for_all (fun c -> Atomic.get c = 1) calls)

let suite =
  [
    Alcotest.test_case "pqueue order" `Quick test_pqueue_order;
    Alcotest.test_case "pqueue empty" `Quick test_pqueue_empty;
    Alcotest.test_case "pqueue peek" `Quick test_pqueue_peek;
    QCheck_alcotest.to_alcotest prop_pqueue_sorts;
    Alcotest.test_case "param repo roundtrip" `Quick test_repo_roundtrip;
    Alcotest.test_case "param repo missing" `Quick test_repo_missing;
    Alcotest.test_case "param repo bad key" `Quick test_repo_bad_key;
    Alcotest.test_case "param repo bad parse" `Quick test_repo_bad_parse;
    Alcotest.test_case "param repo comments" `Quick test_repo_comments_and_blanks;
    Alcotest.test_case "units" `Quick test_units;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "lognormal factor mean" `Quick test_lognormal_factor_mean;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "pareto bounds" `Quick test_pareto_bounds;
    Alcotest.test_case "sample w/o replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "bar chart" `Quick test_bar_chart;
    Alcotest.test_case "env once: two domains race" `Quick test_env_once_race;
  ]
