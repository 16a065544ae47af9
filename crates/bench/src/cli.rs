//! The `tierctl fleet --tenants` parser.

/// One fleet tenant parsed from a `name:workload:weight` triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantArg {
    /// Tenant name as it appears in the fleet report.
    pub name: String,
    /// Suite workload name (see [`pact_workloads::suite::build`]).
    pub workload: String,
    /// QoS weight (≥ 1) for the admission-control budget split.
    pub qos_weight: u32,
}

/// Parses a fleet tenant list: comma-separated `name:workload:weight`
/// triples, e.g. `a:gups:4,hog:mlc-hog:1,zd:zipf-drift:2` (the
/// `tierctl fleet --tenants` flag).
///
/// # Errors
///
/// Returns a message naming the offending fragment for an empty list,
/// a malformed triple, an empty field, an unknown workload, a
/// zero/invalid weight, or a duplicate tenant name.
pub fn parse_tenants(spec: &str) -> Result<Vec<TenantArg>, String> {
    let mut out: Vec<TenantArg> = Vec::new();
    for frag in spec.split(',') {
        let frag = frag.trim();
        if frag.is_empty() {
            return Err(format!("empty tenant entry in {spec:?}"));
        }
        let parts: Vec<&str> = frag.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "invalid tenant {frag:?}: expected name:workload:weight"
            ));
        }
        let (name, workload) = (parts[0].trim(), parts[1].trim());
        if name.is_empty() || workload.is_empty() {
            return Err(format!("invalid tenant {frag:?}: empty name or workload"));
        }
        pact_workloads::suite::check_name(workload)
            .map_err(|e| format!("invalid tenant {frag:?}: {e}"))?;
        let qos_weight = match parts[2].trim().parse::<u32>() {
            Ok(w) if w >= 1 => w,
            _ => {
                return Err(format!(
                    "invalid tenant {frag:?}: weight must be a positive integer"
                ))
            }
        };
        if out.iter().any(|t| t.name == name) {
            return Err(format!("duplicate tenant name {name:?} in {spec:?}"));
        }
        out.push(TenantArg {
            name: name.to_string(),
            workload: workload.to_string(),
            qos_weight,
        });
    }
    if out.is_empty() {
        return Err("tenant list is empty".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_list_parses_and_validates() {
        let ts = parse_tenants("a:gups:4, hog:mlc-hog:1 ,zd:zipf-drift:2").unwrap();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].name, "a");
        assert_eq!(ts[1].workload, "mlc-hog");
        assert_eq!(ts[2].qos_weight, 2);
        assert!(parse_tenants("").is_err());
        assert!(parse_tenants("a:gups").is_err());
        assert!(parse_tenants("a:gups:0").is_err());
        assert!(parse_tenants(":gups:1").is_err());
        assert!(parse_tenants("a:nope:1").is_err());
        assert!(parse_tenants("a:gups:1,a:silo:2").is_err());
    }
}
