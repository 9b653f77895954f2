(* Why a measured window's peak heap follows the words it promotes: 32
   fibers on one engine each wake 20k times per window and store 20
   fresh refs per wake in a shared 8192-slot ring, so most die young;
   in the second run every eighth ref is also kept in a list that lives
   to the window's end, as a workload's in-flight state and log records
   do. Each window starts, as a benchmark repeat does, after
   [Gc.compact ()] and [Gc.stat ()] with the previous window's list
   dropped. Prints, per window, the major cycles completed, the words
   promoted and the heap words at both edges.

     dune exec bench/gc_pacing.exe *)

open Camelot_sim

let fibers = 32
let wakes = 20_000
let ring = Array.make 8192 (ref 0)

let window ~keep =
  let kept = ref [] and slot = ref 0 and made = ref 0 in
  Gc.compact ();
  let s0 = Gc.stat () in
  let eng = Engine.create () in
  for _ = 1 to fibers do
    Fiber.spawn eng (fun () ->
        for _ = 1 to wakes do
          Fiber.sleep 1.0;
          for _ = 1 to 20 do
            let r = ref !made in
            ring.(!slot) <- r;
            slot := (!slot + 1) land 8191;
            incr made;
            if keep && !made land 7 = 0 then kept := r :: !kept
          done
        done)
  done;
  Engine.run eng;
  let s1 = Gc.quick_stat () in
  Printf.printf "  %-11s %6d %10.2fM %8.2fM -> %5.2fM\n%!"
    (if keep then "every 8th" else "none")
    (s1.Gc.major_collections - s0.Gc.major_collections)
    ((s1.Gc.promoted_words -. s0.Gc.promoted_words) /. 1e6)
    (float_of_int s0.Gc.heap_words /. 1e6)
    (float_of_int s1.Gc.heap_words /. 1e6)

let () =
  print_endline "  kept        cycles   promoted   heap words";
  List.iter (fun keep -> for _ = 1 to 5 do window ~keep done) [ false; true ]
