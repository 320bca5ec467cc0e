//! Compile-time and behavioral checks of the optional `serde` support
//! on the data-structure types (C-SERDE): downstream users persist
//! instances, links and schedules.
//!
//! No serialization *format* crate is in the dependency set, so the
//! round-trip is exercised through serde's own data model (the shim's
//! self-describing `Value`) plus trait-presence checks. The support is
//! feature-gated (`serde` on `sinr-geom`/`sinr-links`/`sinr-phy`,
//! forwarded by the umbrella crate and enabled for these tests via the
//! umbrella's self dev-dependency) rather than a hard dependency.

use sinr_connect_suite::geom::{gen, Aabb, Instance, Point};
use sinr_connect_suite::links::{InTree, Link, LinkSet, Schedule};
use sinr_connect_suite::phy::{ChannelModel, Shadowing, SinrParams};

fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}

#[test]
fn data_types_implement_serde() {
    assert_serde::<Point>();
    assert_serde::<Aabb>();
    assert_serde::<Instance>();
    assert_serde::<Link>();
    assert_serde::<LinkSet>();
    assert_serde::<InTree>();
    assert_serde::<Schedule>();
    assert_serde::<SinrParams>();
}

fn roundtrip<T>(x: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    T::from_value(&x.to_value()).expect("round-trip must succeed")
}

#[test]
fn data_types_roundtrip_through_the_data_model() {
    let p = Point::new(1.5, -2.25);
    assert_eq!(roundtrip(&p), p);

    let aabb = Aabb::from_points([Point::new(0.0, 0.0), Point::new(2.0, 3.0)]).unwrap();
    assert_eq!(roundtrip(&aabb), aabb);

    let inst = gen::uniform_square(12, 1.5, 7).unwrap();
    assert_eq!(roundtrip(&inst), inst);

    let link = Link::new(3, 9);
    assert_eq!(roundtrip(&link), link);

    let set = LinkSet::from_links(vec![Link::new(0, 1), Link::new(2, 1)]).unwrap();
    assert_eq!(roundtrip(&set), set);

    let tree = InTree::from_parents(vec![None, Some(0), Some(1), Some(1)]).unwrap();
    assert_eq!(roundtrip(&tree), tree);

    let schedule = Schedule::from_pairs(vec![(Link::new(2, 1), 0), (Link::new(1, 0), 1)]).unwrap();
    assert_eq!(roundtrip(&schedule), schedule);

    let params = SinrParams::default();
    assert_eq!(roundtrip(&params), params);
}

/// The channel is part of the parameters: a geometric `SinrParams`
/// keeps its historical `(α, β, N, ε)` encoding, and a shadowed one
/// appends its `(seed, σ, clamp)` triple and round-trips losslessly —
/// which is what lets snapshot files record the channel.
#[test]
fn shadowed_params_roundtrip_and_geometric_bytes_are_unchanged() {
    use serde::Serialize;

    let geometric = SinrParams::default();
    assert_eq!(
        geometric.to_value(),
        (3.0f64, 2.0f64, 1.0f64, 0.1f64).to_value(),
        "the geometric encoding must stay the bare (α, β, N, ε) tuple"
    );

    let shadowing = Shadowing::with_clamp(u64::MAX - 3, 6.5, 12.0).unwrap();
    let shadowed = geometric.with_channel(ChannelModel::Shadowed(shadowing));
    let back = roundtrip(&shadowed);
    assert_eq!(back, shadowed);
    assert_eq!(back.channel(), ChannelModel::Shadowed(shadowing));
    assert_ne!(shadowed.to_value(), geometric.to_value());
}

/// Deserialization re-validates invariants: payloads describing invalid
/// structures are rejected, not smuggled past the constructors.
#[test]
fn invalid_payloads_are_rejected() {
    use serde::{Deserialize, Serialize};

    // Coincident points violate the instance normalization.
    let bad_points = vec![Point::new(0.0, 0.0), Point::new(0.0, 0.0)];
    assert!(Instance::from_value(&bad_points.to_value()).is_err());

    // A parent cycle is not a tree.
    let cycle: Vec<Option<usize>> = vec![Some(1), Some(0)];
    assert!(InTree::from_value(&cycle.to_value()).is_err());

    // Self-loop link.
    let own = Link::new(0, 1).to_value();
    let looped = match own {
        serde::Value::Map(mut fields) => {
            for (_, v) in fields.iter_mut() {
                *v = serde::Value::U64(4);
            }
            serde::Value::Map(fields)
        }
        other => other,
    };
    assert!(Link::from_value(&looped).is_err());

    // Out-of-domain SINR parameters (α ≤ 2).
    let bad_params = (1.5f64, 2.0f64, 1.0f64, 0.1f64);
    assert!(SinrParams::from_value(&bad_params.to_value()).is_err());

    // A shadowed channel is re-validated too: σ ≤ 0 and a truncation
    // below σ are rejected, as is a malformed shadowing entry.
    let shadowed = |shadowing: serde::Value| {
        let serde::Value::Seq(mut fields) = SinrParams::default().to_value() else {
            unreachable!("SinrParams serializes as a sequence")
        };
        fields.push(shadowing);
        SinrParams::from_value(&serde::Value::Seq(fields))
    };
    assert!(shadowed((7u64, 6.0f64, 18.0f64).to_value()).is_ok());
    assert!(shadowed((7u64, 0.0f64, 18.0f64).to_value()).is_err());
    assert!(shadowed((7u64, -6.0f64, 18.0f64).to_value()).is_err());
    assert!(shadowed((7u64, 6.0f64, 3.0f64).to_value()).is_err());
    assert!(shadowed((7u64, 6.0f64).to_value()).is_err());
}

#[test]
fn send_sync_bounds_hold() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Instance>();
    assert_send_sync::<LinkSet>();
    assert_send_sync::<Schedule>();
    assert_send_sync::<InTree>();
    assert_send_sync::<SinrParams>();
    assert_send_sync::<sinr_connect_suite::phy::PowerAssignment>();
    assert_send_sync::<sinr_connect_suite::connectivity::CoreError>();
    assert_send_sync::<sinr_connect_suite::geom::GeomError>();
}

/// Errors are usable as boxed trait objects across threads (C-GOOD-ERR).
#[test]
fn errors_box_cleanly() {
    fn boxed<E: std::error::Error + Send + Sync + 'static>(
        e: E,
    ) -> Box<dyn std::error::Error + Send + Sync> {
        Box::new(e)
    }
    let _ = boxed(sinr_connect_suite::geom::GeomError::EmptyInstance);
    let _ = boxed(sinr_connect_suite::links::LinkError::NoRoot);
    let _ = boxed(sinr_connect_suite::phy::PhyError::InvalidParameter {
        name: "x",
        reason: "y",
    });
    let _ = boxed(sinr_connect_suite::connectivity::CoreError::InvalidConfig {
        name: "x",
        reason: "y",
    });
}
