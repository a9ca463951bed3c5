//! Request/response types and pseudo-header handling (RFC 9113 §8.3).

use crate::error::H2Error;
use crate::hpack::HeaderField;
use bytes::Bytes;

/// An ordered multimap of header fields (HTTP allows repeats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    fields: Vec<HeaderField>,
}

impl HeaderMap {
    /// An empty map.
    pub fn new() -> HeaderMap {
        HeaderMap::default()
    }

    /// Append a field. Names are lowercased per HTTP/2 §8.2.1, an owned
    /// name in place.
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let mut name = name.into();
        name.make_ascii_lowercase();
        self.fields.push(HeaderField::new(name, value));
    }

    /// First value for `name`, if present. Stored names are lowercase, so
    /// any case of `name` finds them.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|f| f.name.eq_ignore_ascii_case(name))
            .map(|f| f.value.as_str())
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when no fields are present.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterate all fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &HeaderField> {
        self.fields.iter()
    }
}

impl FromIterator<HeaderField> for HeaderMap {
    fn from_iter<T: IntoIterator<Item = HeaderField>>(iter: T) -> Self {
        HeaderMap {
            fields: iter.into_iter().collect(),
        }
    }
}

/// An HTTP/2 request: pseudo-headers plus regular fields and a body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// `:method` pseudo-header.
    pub method: String,
    /// `:path` pseudo-header.
    pub path: String,
    /// `:scheme` pseudo-header.
    pub scheme: String,
    /// `:authority` pseudo-header.
    pub authority: String,
    /// Regular header fields.
    pub headers: HeaderMap,
    /// Request body.
    pub body: Bytes,
}

impl Request {
    /// A bodyless GET.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            scheme: "https".into(),
            authority: "sww.local".into(),
            headers: HeaderMap::new(),
            body: Bytes::new(),
        }
    }

    /// The field lines, borrowed: pseudo-headers first (§8.3), then the
    /// regular fields in order.
    pub fn field_lines(&self) -> impl Iterator<Item = (&str, &str)> {
        [
            (":method", self.method.as_str()),
            (":scheme", self.scheme.as_str()),
            (":authority", self.authority.as_str()),
            (":path", self.path.as_str()),
        ]
        .into_iter()
        .chain(
            self.headers
                .iter()
                .map(|f| (f.name.as_str(), f.value.as_str())),
        )
    }

    /// Flatten into the HPACK field list, in [`Request::field_lines`] order.
    pub fn to_fields(&self) -> Vec<HeaderField> {
        self.field_lines()
            .map(|(name, value)| HeaderField::new(name, value))
            .collect()
    }

    /// Rebuild from a decoded field list, validating pseudo-header rules:
    /// mandatory `:method`/`:scheme`/`:path`, no pseudo-header after a
    /// regular field, no unknown or response pseudo-headers.
    pub fn from_fields(fields: Vec<HeaderField>) -> Result<Request, H2Error> {
        let mut req = Request::default();
        for f in fields {
            req.push_field(f.name, f.value)?;
        }
        req.validated()
    }

    /// Take one decoded field, in wire order: a pseudo-header sets its
    /// part of the request, a regular field joins the headers.
    pub fn push_field(
        &mut self,
        name: impl AsRef<str> + Into<String>,
        value: String,
    ) -> Result<(), H2Error> {
        let Some(pseudo) = name.as_ref().strip_prefix(':') else {
            self.headers.insert(name, value);
            return Ok(());
        };
        if !self.headers.is_empty() {
            return Err(H2Error::protocol("pseudo-header after regular field"));
        }
        match pseudo {
            "method" => self.method = value,
            "path" => self.path = value,
            "scheme" => self.scheme = value,
            "authority" => self.authority = value,
            _ => {
                return Err(H2Error::protocol(format!(
                    "unknown request pseudo-header :{pseudo}"
                )))
            }
        }
        Ok(())
    }

    /// The request once every field is in, if its mandatory
    /// pseudo-headers came.
    pub fn validated(self) -> Result<Request, H2Error> {
        if self.method.is_empty() || self.path.is_empty() || self.scheme.is_empty() {
            return Err(H2Error::protocol("missing mandatory request pseudo-header"));
        }
        Ok(self)
    }
}

/// An HTTP/2 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// `:status` pseudo-header.
    pub status: u16,
    /// Regular header fields.
    pub headers: HeaderMap,
    /// Response body.
    pub body: Bytes,
}

impl Response {
    /// A 200 response with the given body.
    pub fn ok(body: impl Into<Bytes>) -> Response {
        Response {
            status: 200,
            headers: HeaderMap::new(),
            body: body.into(),
        }
    }

    /// A bodyless response with the given status.
    pub fn status(status: u16) -> Response {
        Response {
            status,
            headers: HeaderMap::new(),
            body: Bytes::new(),
        }
    }

    /// Flatten into the HPACK field list.
    pub fn to_fields(&self) -> Vec<HeaderField> {
        let mut fields = vec![HeaderField::new(":status", self.status.to_string())];
        fields.extend(self.headers.iter().cloned());
        fields
    }

    /// Rebuild from a decoded field list.
    pub fn from_fields(fields: Vec<HeaderField>) -> Result<Response, H2Error> {
        let mut resp = Response::status(0);
        for f in fields {
            resp.push_field(f.name, f.value)?;
        }
        resp.validated()
    }

    /// Take one decoded field, in wire order (see [`Request::push_field`]).
    pub fn push_field(
        &mut self,
        name: impl AsRef<str> + Into<String>,
        value: String,
    ) -> Result<(), H2Error> {
        let Some(pseudo) = name.as_ref().strip_prefix(':') else {
            self.headers.insert(name, value);
            return Ok(());
        };
        if !self.headers.is_empty() {
            return Err(H2Error::protocol("pseudo-header after regular field"));
        }
        if pseudo != "status" {
            return Err(H2Error::protocol(format!(
                "unknown response pseudo-header :{pseudo}"
            )));
        }
        self.status = value
            .parse()
            .map_err(|_| H2Error::protocol("bad :status"))?;
        Ok(())
    }

    /// The response once every field is in, if its `:status` came.
    pub fn validated(self) -> Result<Response, H2Error> {
        if self.status == 0 {
            return Err(H2Error::protocol("missing :status"));
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_map_case_insensitive() {
        let mut h = HeaderMap::new();
        h.insert("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
    }

    #[test]
    fn multi_value_headers() {
        let mut h = HeaderMap::new();
        h.insert("set-cookie", "a=1");
        h.insert("set-cookie", "b=2");
        assert_eq!(h.len(), 2, "a repeated name keeps both fields");
        assert_eq!(h.get("set-cookie"), Some("a=1"));
    }

    #[test]
    fn request_field_roundtrip() {
        let mut req = Request::get("/wiki?q=landscape");
        req.headers.insert("accept", "text/html");
        let back = Request::from_fields(req.to_fields()).unwrap();
        assert_eq!(back.method, "GET");
        assert_eq!(back.path, "/wiki?q=landscape");
        assert_eq!(back.headers.get("accept"), Some("text/html"));
    }

    #[test]
    fn response_field_roundtrip() {
        let mut resp = Response::ok(Bytes::from_static(b"<html/>"));
        resp.headers.insert("content-type", "text/html");
        let mut back = Response::from_fields(resp.to_fields()).unwrap();
        back.body = resp.body.clone();
        assert_eq!(back, resp);
    }

    #[test]
    fn pseudo_header_order_enforced() {
        let fields = vec![
            HeaderField::new("accept", "*/*"),
            HeaderField::new(":method", "GET"),
        ];
        assert!(Request::from_fields(fields).is_err());
    }

    #[test]
    fn missing_mandatory_pseudo_rejected() {
        let fields = vec![HeaderField::new(":method", "GET")];
        assert!(Request::from_fields(fields).is_err());
        assert!(Response::from_fields(vec![]).is_err());
    }

    #[test]
    fn unknown_pseudo_rejected() {
        let fields = vec![HeaderField::new(":proto", "x")];
        assert!(Request::from_fields(fields).is_err());
        assert!(Response::from_fields(vec![HeaderField::new(":method", "GET")]).is_err());
    }
}
