//! `cubeview` — interactive inspector for arbitrary faulty-hypercube
//! instances: computes safety levels, classifies nodes, and optionally
//! routes a unicast, printing the paper-style narration.
//!
//! ```text
//! cubeview --n 4 --faults 0011,0100,0110,1001 [--link 1000-1001] [--route 1110:0001]
//! cubeview --n 7 --random-faults 6 --seed 42 --route-random 3
//! ```

use hypersafe_core::{route_traced, run_gs, Condition, Decision, SafetyMap};
use hypersafe_experiments::table::Report;
use hypersafe_simkit::Trace;
use hypersafe_topology::{
    connectivity, FaultConfig, FaultSet, Hypercube, LinkFaultSet, NodeId, Topology,
};
use hypersafe_workloads::{random_pair, uniform_faults, Sweep};

struct Opts {
    n: u8,
    faults: Vec<String>,
    links: Vec<(String, String)>,
    random_faults: Option<usize>,
    seed: u64,
    routes: Vec<(String, String)>,
    route_random: usize,
    draw: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: cubeview --n N [--faults a,b,c] [--random-faults K] [--seed S] \
         [--link a-b]... [--route s:d]... [--route-random K] [--draw]"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut o = Opts {
        n: 4,
        faults: Vec::new(),
        links: Vec::new(),
        random_faults: None,
        seed: 7,
        routes: Vec::new(),
        route_random: 0,
        draw: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--n" => {
                o.n = val().parse().unwrap_or_else(|_| usage());
                if !(2..=16).contains(&o.n) {
                    eprintln!("--n must be in 2..=16");
                    std::process::exit(2);
                }
            }
            "--faults" => o.faults = val().split(',').map(str::to_string).collect(),
            "--random-faults" => o.random_faults = Some(val().parse().unwrap_or_else(|_| usage())),
            "--seed" => o.seed = val().parse().unwrap_or_else(|_| usage()),
            "--link" => {
                let v = val();
                let (a, b) = v.split_once('-').unwrap_or_else(|| usage());
                o.links.push((a.to_string(), b.to_string()));
            }
            "--route" => {
                let v = val();
                let (s, d) = v.split_once(':').unwrap_or_else(|| usage());
                o.routes.push((s.to_string(), d.to_string()));
            }
            "--route-random" => o.route_random = val().parse().unwrap_or_else(|_| usage()),
            "--draw" => o.draw = true,
            _ => usage(),
        }
    }
    o
}

fn parse_node(n: u8, s: &str) -> NodeId {
    NodeId::from_binary(s)
        .filter(|a| a.raw() < (1 << n))
        .unwrap_or_else(|| {
            eprintln!("bad {n}-bit address {s:?}");
            std::process::exit(2);
        })
}

fn main() {
    let o = parse_args();
    let cube = Hypercube::new(o.n);
    let mut rng = Sweep::new(1, o.seed).trial_rng(0);

    let faults = if let Some(k) = o.random_faults {
        uniform_faults(cube, k, &mut rng)
    } else {
        FaultSet::from_nodes(cube, o.faults.iter().map(|s| parse_node(o.n, s)))
    };
    let mut links = LinkFaultSet::new();
    for (a, b) in &o.links {
        let (a, b) = (parse_node(o.n, a), parse_node(o.n, b));
        if a.distance(b) != 1 {
            eprintln!(
                "--link {}-{} is not a hypercube link (addresses must differ in exactly one bit)",
                a.to_binary(o.n),
                b.to_binary(o.n)
            );
            std::process::exit(2);
        }
        links.insert(a, b);
    }
    let cfg = FaultConfig::with_faults(cube, faults, links);

    // Safety state: the lock-step GS, EGS when there are faulty links.
    let run = run_gs(cube, &cfg);
    let (map, stats) = (run.map, run.stats);
    let mut rep = Report::new(
        "cubeview",
        format!(
            "Q_{} · {} faulty nodes · {} faulty links · {} exchange messages",
            o.n,
            cfg.node_faults().len(),
            cfg.link_faults().len(),
            stats.messages
        ),
        &["node", "advertised", "own", "class"],
    );
    for a in cube.nodes() {
        let class = if cfg.node_faulty(a) {
            "faulty"
        } else if map.is_n2(a) {
            "N2"
        } else if map.level(a) == o.n {
            "safe"
        } else {
            "unsafe"
        };
        rep.row(vec![
            a.to_binary(o.n),
            map.level(a).to_string(),
            map.own_level(a).to_string(),
            class.to_string(),
        ]);
    }
    let comps = connectivity::components(&cfg);
    rep.note(format!(
        "{} component(s){}",
        comps.len(),
        if comps.len() > 1 {
            " — DISCONNECTED"
        } else {
            ""
        }
    ));
    println!("{}", rep.render());

    if o.draw && (o.n == 3 || o.n == 4) {
        let mut label = |a: hypersafe_topology::NodeId| {
            if cfg.node_faulty(a) {
                format!("{}=X", a.to_binary(o.n))
            } else {
                format!("{}={}", a.to_binary(o.n), map.level(a))
            }
        };
        let art = if o.n == 3 {
            hypersafe_experiments::render::render_q3(0, &mut label)
        } else {
            hypersafe_experiments::render::render_q4(&mut label)
        };
        println!("{art}");
    } else if o.draw {
        eprintln!("--draw supports n = 3 or 4 only");
    }

    let mut routes: Vec<(NodeId, NodeId)> = o
        .routes
        .iter()
        .map(|(s, d)| (parse_node(o.n, s), parse_node(o.n, d)))
        .collect();
    for _ in 0..o.route_random {
        routes.push(random_pair(&cfg, &mut rng));
    }
    for (s, d) in routes {
        narrate(&cfg, &map, s, d);
    }
}

fn narrate(cfg: &FaultConfig, map: &SafetyMap, s: NodeId, d: NodeId) {
    let n = cfg.cube().dim();
    let h = s.distance(d);
    println!(
        "unicast {} → {}: H = {h}, S(s) = {}",
        s.to_binary(n),
        d.to_binary(n),
        map.own_level(s)
    );
    let mut trace = Trace::enabled();
    let res = route_traced(cfg, map, s, d, &mut trace);
    match res.decision {
        Decision::Optimal { condition, .. } => {
            let cond = match condition {
                Condition::C1 => "C1: S(s) ≥ H",
                Condition::C2 => "C2: a preferred neighbor has level ≥ H − 1",
                Condition::C3 => unreachable!("C3 is suboptimal"),
            };
            println!("  optimal unicasting ({cond})");
        }
        Decision::Suboptimal { .. } => {
            println!("  suboptimal unicasting (C3: a spare neighbor has level ≥ H + 1)");
        }
        Decision::Failure => {
            println!("  FAILURE detected at the source (C1, C2 and C3 all fail)");
            return;
        }
        Decision::AlreadyThere => {
            println!("  source is the destination");
            return;
        }
    }
    if let Some(p) = &res.path {
        println!(
            "  path {} (length {} = H{}{})",
            p.render(n),
            p.len(),
            if p.is_optimal() { "" } else { " + 2" },
            if res.delivered { "" } else { "; MESSAGE LOST" }
        );
    }
}
